#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "nachos/may_station.hh"

namespace nachos {
namespace {

/** A station over its own parent storage. */
struct OwnedStation
{
    OwnedStation(uint32_t num_parents, StatSet &stats,
                 uint32_t compares_per_cycle = 1)
        : parents(num_parents), pending(num_parents),
          station(parents, pending, stats, compares_per_cycle)
    {}

    std::vector<MayCheckStation::ParentState> parents;
    std::vector<uint32_t> pending;
    MayCheckStation station;
};

class MayStationTest : public ::testing::Test
{
  protected:
    StatSet stats;
};

TEST_F(MayStationTest, NoConflictClearsAfterCompare)
{
    OwnedStation stStorage(1, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x100, 8, 10);
    EXPECT_FALSE(st.allClearCycle().has_value());
    st.parentAddressArrived(0, 0x200, 8, 12);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 13u); // compare at 12, result at 13
    EXPECT_EQ(st.comparesDone(), 1u);
    EXPECT_EQ(stats.get("nachos.checksClear"), 1u);
}

TEST_F(MayStationTest, ConflictWaitsForParentCompletion)
{
    OwnedStation stStorage(1, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x100, 8, 5);
    st.parentAddressArrived(0, 0x100, 8, 6);
    EXPECT_FALSE(st.allClearCycle().has_value()); // conflict pending
    st.parentCompleted(0, 40);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 40u);
    EXPECT_EQ(stats.get("nachos.checksConflict"), 1u);
}

TEST_F(MayStationTest, CompletionBeforeCompareHandled)
{
    OwnedStation stStorage(1, stats);
    MayCheckStation &st = stStorage.station;
    st.parentCompleted(0, 8);
    st.parentAddressArrived(0, 0x100, 8, 9);
    EXPECT_FALSE(st.allClearCycle().has_value()); // own addr missing
    st.ownAddressReady(0x100, 8, 20);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 21u); // conflict, but parent already done
}

TEST_F(MayStationTest, ArbiterSerializesOneComparePerCycle)
{
    // Three parents arrive in the same cycle: compares at t, t+1, t+2.
    OwnedStation stStorage(3, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x100, 8, 10);
    st.parentAddressArrived(0, 0x200, 8, 10);
    st.parentAddressArrived(1, 0x300, 8, 10);
    st.parentAddressArrived(2, 0x400, 8, 10);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 13u); // last compare finishes at 12+1
    EXPECT_EQ(st.comparesDone(), 3u);
}

TEST_F(MayStationTest, HighFanInScalesLinearly)
{
    const uint32_t k = 50;
    OwnedStation stStorage(k, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x100, 8, 0);
    for (uint32_t p = 0; p < k; ++p)
        st.parentAddressArrived(p, 0x1000 + p * 64, 8, 0);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, k); // 50 cycles of serialized checks
}

TEST_F(MayStationTest, StaggeredArrivalsAvoidContention)
{
    OwnedStation stStorage(2, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x100, 8, 0);
    st.parentAddressArrived(0, 0x200, 8, 5);
    st.parentAddressArrived(1, 0x300, 8, 9);
    auto clear = st.allClearCycle();
    ASSERT_TRUE(clear.has_value());
    EXPECT_EQ(*clear, 10u); // no queueing: each compares on arrival
}

TEST_F(MayStationTest, PartialOverlapIsConflict)
{
    OwnedStation stStorage(1, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x104, 8, 0);
    st.parentAddressArrived(0, 0x100, 8, 0);
    EXPECT_FALSE(st.allClearCycle().has_value());
    st.parentCompleted(0, 30);
    EXPECT_EQ(*st.allClearCycle(), 30u);
}

TEST_F(MayStationTest, ResetRestoresFreshState)
{
    OwnedStation stStorage(1, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x100, 8, 0);
    st.parentAddressArrived(0, 0x200, 8, 0);
    ASSERT_TRUE(st.allClearCycle().has_value());
    st.reset();
    EXPECT_FALSE(st.allClearCycle().has_value());
    st.ownAddressReady(0x100, 8, 0);
    st.parentAddressArrived(0, 0x200, 8, 0);
    EXPECT_TRUE(st.allClearCycle().has_value());
}

TEST_F(MayStationTest, ConflictIntrospection)
{
    OwnedStation stStorage(3, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x100, 8, 0);
    st.parentAddressArrived(0, 0x100, 8, 0); // exact conflict
    st.parentAddressArrived(1, 0x104, 8, 0); // partial conflict
    st.parentAddressArrived(2, 0x900, 8, 0); // disjoint
    ASSERT_TRUE(st.allCompared());
    EXPECT_FALSE(st.soleConflict().has_value()); // two overlaps
    EXPECT_TRUE(st.exactConflict(0));
    EXPECT_FALSE(st.exactConflict(1)); // overlap but not exact
    EXPECT_FALSE(st.exactConflict(2));
    // Three compares serialize: the last finishes at cycle 3.
    EXPECT_EQ(st.lastCompareDoneCycle(), 3u);
}

TEST_F(MayStationTest, SoleConflictNamesTheOneOverlappingParent)
{
    OwnedStation stStorage(3, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x100, 8, 0);
    st.parentAddressArrived(0, 0x900, 8, 0); // disjoint
    EXPECT_FALSE(st.soleConflict().has_value());
    st.parentAddressArrived(2, 0x100, 8, 0); // exact conflict
    ASSERT_TRUE(st.soleConflict().has_value());
    EXPECT_EQ(*st.soleConflict(), 2u);
}

TEST_F(MayStationTest, StationsShareOneFlatParentArray)
{
    // Two stations over adjacent slices of one array, as the NACHOS
    // backend lays them out: neither sees the other's parents.
    std::vector<MayCheckStation::ParentState> parents(3);
    std::vector<uint32_t> pending(3);
    MayCheckStation a{std::span(parents).subspan(0, 1),
                      std::span(pending).subspan(0, 1), stats};
    MayCheckStation b{std::span(parents).subspan(1, 2),
                      std::span(pending).subspan(1, 2), stats};
    a.ownAddressReady(0x100, 8, 0);
    b.ownAddressReady(0x100, 8, 0);
    a.parentAddressArrived(0, 0x100, 8, 1); // conflict
    b.parentAddressArrived(0, 0x200, 8, 1);
    b.parentAddressArrived(1, 0x300, 8, 1);
    EXPECT_FALSE(a.allClearCycle().has_value());
    ASSERT_TRUE(b.allClearCycle().has_value());
    EXPECT_EQ(*b.allClearCycle(), 3u);
    b.reset();
    EXPECT_TRUE(parents[0].compared); // a's state survives b's reset
    EXPECT_FALSE(parents[1].compared);
}

TEST_F(MayStationTest, AllComparedFalseWhileWaitingForOwnAddress)
{
    OwnedStation stStorage(1, stats);
    MayCheckStation &st = stStorage.station;
    st.parentAddressArrived(0, 0x200, 8, 2);
    EXPECT_FALSE(st.allCompared());
    st.ownAddressReady(0x100, 8, 5);
    EXPECT_TRUE(st.allCompared());
}

TEST_F(MayStationTest, WideArbiterComparesInParallel)
{
    OwnedStation wideStorage(4, stats, /*compares_per_cycle=*/4);
    MayCheckStation &wide = wideStorage.station;
    wide.ownAddressReady(0x100, 8, 10);
    for (uint32_t p = 0; p < 4; ++p)
        wide.parentAddressArrived(p, 0x1000 + p * 64, 8, 10);
    ASSERT_TRUE(wide.allClearCycle().has_value());
    EXPECT_EQ(*wide.allClearCycle(), 11u); // all four in one cycle
}

TEST_F(MayStationTest, DeathOnDuplicateEvents)
{
    OwnedStation stStorage(1, stats);
    MayCheckStation &st = stStorage.station;
    st.ownAddressReady(0x100, 8, 0);
    EXPECT_DEATH(st.ownAddressReady(0x100, 8, 1), "twice");
    st.parentAddressArrived(0, 0x200, 8, 0);
    EXPECT_DEATH(st.parentAddressArrived(0, 0x200, 8, 1), "twice");
}

} // namespace
} // namespace nachos
