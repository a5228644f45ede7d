#include <gtest/gtest.h>

#include "lsq/opt_lsq.hh"

namespace nachos {
namespace {

class OptLsqTest : public ::testing::Test
{
  protected:
    StatSet stats;
    LsqConfig cfg;
    // 4 mem ops by default; tests that need more build their own.
    OptLsq lsq{cfg, 4, stats};
};

TEST_F(OptLsqTest, InOrderAllocationCascades)
{
    // Op 1's address resolves first; it must wait for op 0.
    auto r1 = lsq.addressReady(1, false, 0x100, 8, 5);
    EXPECT_TRUE(r1.empty()); // blocked behind op 0
    auto r0 = lsq.addressReady(0, false, 0x200, 8, 20);
    ASSERT_EQ(r0.size(), 2u);
    EXPECT_EQ(r0[0].first, 0u);
    EXPECT_EQ(r0[1].first, 1u);
    EXPECT_GE(r0[0].second, 20u + cfg.allocLatency);
    EXPECT_GE(r0[1].second, r0[0].second); // program order preserved
}

TEST_F(OptLsqTest, LoadWithNoStoresGoesToCache)
{
    auto a = lsq.addressReady(0, false, 0x100, 8, 0);
    ASSERT_EQ(a.size(), 1u);
    auto dec = lsq.loadSearch(0, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ToCache);
    EXPECT_EQ(dec.cycle, a[0].second + cfg.searchLatency);
    // Bloom was empty: no CAM search.
    EXPECT_EQ(stats.get("lsq.camLoads"), 0u);
    EXPECT_EQ(stats.get("lsq.bloomMisses"), 1u);
}

TEST_F(OptLsqTest, ExactMatchForwards)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    auto a = lsq.addressReady(1, false, 0x100, 8, 1);
    auto dec = lsq.loadSearch(1, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ForwardFrom);
    EXPECT_EQ(dec.store, 0u);
    EXPECT_EQ(stats.get("lsq.forwards"), 1u);
    EXPECT_EQ(stats.get("lsq.camLoads"), 1u);
}

TEST_F(OptLsqTest, PartialOverlapWaitsForCommit)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    auto a = lsq.addressReady(1, false, 0x104, 8, 1);
    auto dec = lsq.loadSearch(1, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::WaitCommit);
    EXPECT_EQ(dec.store, 0u);
}

TEST_F(OptLsqTest, YoungestMatchingStoreWins)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    lsq.addressReady(1, true, 0x100, 8, 1);
    auto a = lsq.addressReady(2, false, 0x100, 8, 2);
    auto dec = lsq.loadSearch(2, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ForwardFrom);
    EXPECT_EQ(dec.store, 1u);
}

TEST_F(OptLsqTest, DrainedStoreInvisibleToSearch)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    lsq.storeDataArrived(0, 3);
    lsq.storeDrained(0);
    auto a = lsq.addressReady(1, false, 0x100, 8, 10);
    auto dec = lsq.loadSearch(1, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ToCache);
}

// A younger overlapping store that drained first already wrote part of
// the load's bytes: forwarding an older exact match past it would hand
// the load stale data, so the load waits for the match to commit and
// reads the cache instead.
TEST_F(OptLsqTest, NoForwardingPastADrainedYoungerOverlap)
{
    lsq.addressReady(0, true, 0x100, 8, 0); // exact match, older
    lsq.addressReady(1, true, 0x104, 8, 0); // overlaps bytes 4..7
    lsq.storeDataArrived(0, 2);
    lsq.storeDataArrived(1, 2);
    ASSERT_TRUE(lsq.storeCommitted(0) && lsq.storeCommitted(1));
    lsq.storeDrained(1); // store 0's write is still in flight
    auto a = lsq.addressReady(2, false, 0x100, 8, 10);
    ASSERT_EQ(a.size(), 1u);
    const LoadSearchResult dec = lsq.loadSearch(2, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::WaitCommit);
    EXPECT_EQ(dec.store, 0u);
    EXPECT_EQ(stats.get("lsq.forwards"), 0u);
    const LoadWaitStatus st = lsq.loadWaitStatus(2);
    EXPECT_EQ(st.blockingStore, LoadWaitStatus::kNone);
    EXPECT_EQ(st.commitFloor, lsq.storeCommitCycle(0) + 1);
}

TEST_F(OptLsqTest, StoresCommitInProgramOrder)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    lsq.addressReady(1, true, 0x200, 8, 0);
    // Younger store's data arrives first: nothing commits yet.
    auto c1 = lsq.storeDataArrived(1, 5);
    EXPECT_TRUE(c1.empty());
    // Older store's data arrives: both commit, in order.
    auto c0 = lsq.storeDataArrived(0, 50);
    ASSERT_EQ(c0.size(), 2u);
    EXPECT_EQ(c0[0].first, 0u);
    EXPECT_EQ(c0[1].first, 1u);
    EXPECT_LT(c0[0].second, c0[1].second);
    EXPECT_GE(c0[1].second, 50u);
}

TEST_F(OptLsqTest, AllDrainedTracksLifecycle)
{
    EXPECT_FALSE(lsq.allDrained());
    LsqConfig small_cfg;
    OptLsq small(small_cfg, 2, stats);
    small.addressReady(0, true, 0x100, 8, 0);
    small.addressReady(1, false, 0x200, 8, 1);
    small.storeDataArrived(0, 2);
    small.storeDrained(0);
    EXPECT_FALSE(small.allDrained());
    small.loadDone(1);
    EXPECT_TRUE(small.allDrained());
}

TEST_F(OptLsqTest, ResetRestoresFreshState)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    lsq.reset();
    auto a = lsq.addressReady(0, false, 0x100, 8, 0);
    ASSERT_EQ(a.size(), 1u);
    auto dec = lsq.loadSearch(0, a[0].second);
    // Bloom was cleared: the old store's address is gone.
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ToCache);
}

TEST_F(OptLsqTest, BankPortContentionDelaysAllocation)
{
    LsqConfig one_bank;
    one_bank.banks = 1;
    one_bank.portsPerBank = 1;
    OptLsq tight(one_bank, 3, stats);
    tight.addressReady(2, false, 0x300, 8, 0);
    tight.addressReady(1, false, 0x200, 8, 0);
    auto a = tight.addressReady(0, false, 0x100, 8, 0);
    ASSERT_EQ(a.size(), 3u);
    // One port: allocations serialize across cycles.
    EXPECT_LT(a[0].second, a[1].second);
    EXPECT_LT(a[1].second, a[2].second);
}

TEST_F(OptLsqTest, StoreAllocProbesBloomBeforeInserting)
{
    lsq.addressReady(0, true, 0x100, 8, 0);
    // The store probes BEFORE inserting its own address: an empty
    // filter yields no CAM charge (no self-hits).
    EXPECT_EQ(stats.get("lsq.bloomProbes"), 1u);
    EXPECT_EQ(stats.get("lsq.camStores"), 0u);
    // A second store to the same address does hit.
    lsq.addressReady(1, true, 0x100, 8, 1);
    EXPECT_EQ(stats.get("lsq.camStores"), 1u);
}

TEST_F(OptLsqTest, DeathOnDoubleAddressReady)
{
    lsq.addressReady(0, false, 0x100, 8, 0);
    EXPECT_DEATH(lsq.addressReady(0, false, 0x100, 8, 1), "twice");
}

} // namespace
} // namespace nachos
