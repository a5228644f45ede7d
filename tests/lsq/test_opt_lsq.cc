#include <gtest/gtest.h>

#include "lsq/opt_lsq.hh"

namespace nachos {
namespace {

// The calls that report grants fill a caller-owned buffer; these
// wrappers return a fresh one so each check reads as a value.
OptLsq::Grants
addressReady(OptLsq &lsq, uint32_t m, bool is_store, uint64_t addr,
             uint32_t size, uint64_t cycle)
{
    OptLsq::Grants out;
    lsq.addressReady(m, is_store, addr, size, cycle, out);
    return out;
}

OptLsq::Grants
storeDataArrived(OptLsq &lsq, uint32_t m, uint64_t cycle)
{
    OptLsq::Grants out;
    lsq.storeDataArrived(m, cycle, out);
    return out;
}

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
    auto r1 = addressReady(lsq, 1, false, 0x100, 8, 5);
    EXPECT_TRUE(r1.empty()); // blocked behind op 0
    auto r0 = addressReady(lsq, 0, false, 0x200, 8, 20);
    ASSERT_EQ(r0.size(), 2u);
    EXPECT_EQ(r0[0].first, 0u);
    EXPECT_EQ(r0[1].first, 1u);
    EXPECT_GE(r0[0].second, 20u + cfg.allocLatency);
    EXPECT_GE(r0[1].second, r0[0].second); // program order preserved
}

TEST_F(OptLsqTest, LoadWithNoStoresGoesToCache)
{
    auto a = addressReady(lsq, 0, false, 0x100, 8, 0);
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
    addressReady(lsq, 0, true, 0x100, 8, 0);
    auto a = addressReady(lsq, 1, false, 0x100, 8, 1);
    auto dec = lsq.loadSearch(1, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ForwardFrom);
    EXPECT_EQ(dec.store, 0u);
    EXPECT_EQ(stats.get("lsq.forwards"), 1u);
    EXPECT_EQ(stats.get("lsq.camLoads"), 1u);
}

TEST_F(OptLsqTest, PartialOverlapWaitsForCommit)
{
    addressReady(lsq, 0, true, 0x100, 8, 0);
    auto a = addressReady(lsq, 1, false, 0x104, 8, 1);
    auto dec = lsq.loadSearch(1, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::WaitCommit);
    EXPECT_EQ(dec.store, 0u);
}

TEST_F(OptLsqTest, YoungestMatchingStoreWins)
{
    addressReady(lsq, 0, true, 0x100, 8, 0);
    addressReady(lsq, 1, true, 0x100, 8, 1);
    auto a = addressReady(lsq, 2, false, 0x100, 8, 2);
    auto dec = lsq.loadSearch(2, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ForwardFrom);
    EXPECT_EQ(dec.store, 1u);
}

TEST_F(OptLsqTest, DrainedStoreInvisibleToSearch)
{
    addressReady(lsq, 0, true, 0x100, 8, 0);
    storeDataArrived(lsq, 0, 3);
    lsq.storeDrained(0);
    auto a = addressReady(lsq, 1, false, 0x100, 8, 10);
    auto dec = lsq.loadSearch(1, a[0].second);
    EXPECT_EQ(dec.kind, LoadSearchResult::Kind::ToCache);
}

// A younger overlapping store that drained first already wrote part of
// the load's bytes: forwarding an older exact match past it would hand
// the load stale data, so the load waits for the match to commit and
// reads the cache instead.
TEST_F(OptLsqTest, NoForwardingPastADrainedYoungerOverlap)
{
    addressReady(lsq, 0, true, 0x100, 8, 0); // exact match, older
    addressReady(lsq, 1, true, 0x104, 8, 0); // overlaps bytes 4..7
    storeDataArrived(lsq, 0, 2);
    storeDataArrived(lsq, 1, 2);
    ASSERT_TRUE(lsq.storeCommitted(0) && lsq.storeCommitted(1));
    lsq.storeDrained(1); // store 0's write is still in flight
    auto a = addressReady(lsq, 2, false, 0x100, 8, 10);
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
    addressReady(lsq, 0, true, 0x100, 8, 0);
    addressReady(lsq, 1, true, 0x200, 8, 0);
    // Younger store's data arrives first: nothing commits yet.
    auto c1 = storeDataArrived(lsq, 1, 5);
    EXPECT_TRUE(c1.empty());
    // Older store's data arrives: both commit, in order.
    auto c0 = storeDataArrived(lsq, 0, 50);
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
    addressReady(small, 0, true, 0x100, 8, 0);
    addressReady(small, 1, false, 0x200, 8, 1);
    storeDataArrived(small, 0, 2);
    small.storeDrained(0);
    EXPECT_FALSE(small.allDrained());
    small.loadDone(1);
    EXPECT_TRUE(small.allDrained());
}

TEST_F(OptLsqTest, ResetRestoresFreshState)
{
    addressReady(lsq, 0, true, 0x100, 8, 0);
    lsq.reset();
    auto a = addressReady(lsq, 0, false, 0x100, 8, 0);
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
    addressReady(tight, 2, false, 0x300, 8, 0);
    addressReady(tight, 1, false, 0x200, 8, 0);
    auto a = addressReady(tight, 0, false, 0x100, 8, 0);
    ASSERT_EQ(a.size(), 3u);
    // One port: allocations serialize across cycles.
    EXPECT_LT(a[0].second, a[1].second);
    EXPECT_LT(a[1].second, a[2].second);
}

TEST_F(OptLsqTest, StoreAllocProbesBloomBeforeInserting)
{
    addressReady(lsq, 0, true, 0x100, 8, 0);
    // The store probes BEFORE inserting its own address: an empty
    // filter yields no CAM charge (no self-hits).
    EXPECT_EQ(stats.get("lsq.bloomProbes"), 1u);
    EXPECT_EQ(stats.get("lsq.camStores"), 0u);
    // A second store to the same address does hit.
    addressReady(lsq, 1, true, 0x100, 8, 1);
    EXPECT_EQ(stats.get("lsq.camStores"), 1u);
}

TEST_F(OptLsqTest, GrantBuffersAreRefilledNotAppended)
{
    // A reused buffer holding an earlier call's grants reports only
    // the new ones.
    OptLsq::Grants grants{{7, 7}, {8, 8}};
    lsq.addressReady(0, true, 0x100, 8, 0, grants);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].first, 0u);
    lsq.storeDataArrived(0, 3, grants);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].first, 0u);
    lsq.resumeCommits(grants);
    EXPECT_TRUE(grants.empty());
}

TEST_F(OptLsqTest, DeathOnDoubleAddressReady)
{
    addressReady(lsq, 0, false, 0x100, 8, 0);
    EXPECT_DEATH(addressReady(lsq, 0, false, 0x100, 8, 1), "twice");
}

} // namespace
} // namespace nachos
