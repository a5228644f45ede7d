/**
 * The differential fuzzer itself: clean seeds pass on every profile, a
 * hand-built trivially-correct region yields no mismatches, and —
 * mutation self-test — a checker that cannot fail verifies nothing, so
 * each fault-injection mode must be caught within a small seed budget,
 * with a shrunk reproducer that round-trips byte-identically.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ir/builder.hh"
#include "ir/serialize.hh"
#include "testing/diff_fuzzer.hh"

namespace nachos {
namespace testing {
namespace {

TEST(DiffFuzzer, CleanSeedsProduceNoMismatches)
{
    FuzzOptions opts;
    const FuzzSummary summary = runFuzz(0, 40, opts, /*threads=*/4);
    EXPECT_EQ(summary.cases, 40u);
    EXPECT_EQ(summary.failures, 0u);
    for (const FuzzCaseOutcome &o : summary.failed) {
        for (const FuzzMismatch &m : o.mismatches) {
            ADD_FAILURE() << "seed " << o.seed << " [" << m.backend
                          << "] " << m.check << ": " << m.detail;
        }
    }
}

TEST(DiffFuzzer, EveryProfilePassesASmokeSweep)
{
    for (const char *profile :
         {"store-heavy", "zero-store", "single-op", "negative-stride",
          "oob-2d", "opaque-only"}) {
        FuzzOptions opts;
        opts.gen = profileByName(profile);
        const FuzzSummary summary = runFuzz(0, 10, opts, /*threads=*/4);
        EXPECT_EQ(summary.failures, 0u) << "profile " << profile;
    }
}

TEST(DiffFuzzer, TriviallyCorrectRegionChecksClean)
{
    RegionBuilder b("trivial");
    ObjectId a = b.object("A", 256);
    OpId c = b.constant(42);
    b.store(b.at(a, 0), c);
    OpId ld = b.load(b.at(a, 0));
    b.liveOut(ld);
    const Region r = b.build();

    FuzzOptions opts;
    EXPECT_TRUE(checkRegion(r, opts).empty());
}

TEST(DiffFuzzer, ImageMismatchNamesTheFirstDifferingAddress)
{
    // Two stores to A+8, the older one's data late: without their
    // ORDER edge the younger store lands first and is overwritten.
    // A+0 is written once, so the images first differ at A+8.
    RegionBuilder b("waw");
    ObjectId a = b.object("A", 256);
    b.store(b.at(a, 0), b.constant(7));
    const OpId zero = b.constant(0);
    OpId late = b.constant(1);
    for (int i = 0; i < 24; ++i)
        late = b.iadd(late, zero);
    b.store(b.at(a, 8), late);
    b.store(b.at(a, 8), b.constant(2));
    const Region r = b.build();

    FuzzOptions opts;
    ASSERT_TRUE(checkRegion(r, opts).empty());
    opts.fault = FaultInjection::DropOrderEdge;
    std::ostringstream want;
    want << "first divergence at 0x" << std::hex
         << r.object(a).baseAddr + 8;
    bool found = false;
    for (const FuzzMismatch &m : checkRegion(r, opts)) {
        if (m.check != "oracle-image")
            continue;
        found = true;
        EXPECT_NE(m.detail.find(want.str()), std::string::npos)
            << m.backend << ": " << m.detail;
    }
    EXPECT_TRUE(found) << "the dropped ORDER edge changed no image";
}

TEST(DiffFuzzer, FaultNamesRoundTrip)
{
    for (FaultInjection f :
         {FaultInjection::None, FaultInjection::DropOrderEdge,
          FaultInjection::DropMayEdge, FaultInjection::DropForwardEdge}) {
        EXPECT_EQ(faultByName(faultName(f)), f);
    }
    EXPECT_DEATH(faultByName("bogus"), "fault");
}

/**
 * The ISSUE's mutation-self-test bar: an injected fault must be
 * detected within 200 seeds. Runs with shrinking enabled so the
 * reproducer contract is exercised on a real failure.
 */
void
expectFaultCaught(FaultInjection fault)
{
    FuzzOptions opts;
    opts.fault = fault;
    const FuzzSummary summary =
        runFuzz(0, 200, opts, /*threads=*/4, /*max_failures=*/1);
    ASSERT_GE(summary.failures, 1u)
        << faultName(fault) << " was never detected in "
        << summary.cases << " seeds";

    const FuzzCaseOutcome &o = summary.failed.front();
    EXPECT_FALSE(o.mismatches.empty());
    EXPECT_LE(o.opsAfterShrink, o.opsBeforeShrink);

    // The shrunk reproducer must round-trip byte-identically so the
    // corpus stays stable under re-serialization.
    ASSERT_FALSE(o.reproducer.empty());
    const Region back = regionFromString(o.reproducer);
    EXPECT_EQ(regionToString(back), o.reproducer);

    // And replaying it with the same fault must still fail.
    FuzzOptions replay = opts;
    EXPECT_FALSE(checkRegion(back, replay).empty())
        << faultName(fault) << " reproducer does not reproduce";
}

TEST(DiffFuzzerSelfTest, DroppedOrderEdgeIsCaught)
{
    expectFaultCaught(FaultInjection::DropOrderEdge);
}

TEST(DiffFuzzerSelfTest, DroppedMayEdgeIsCaught)
{
    expectFaultCaught(FaultInjection::DropMayEdge);
}

TEST(DiffFuzzerSelfTest, DroppedForwardEdgeIsCaught)
{
    expectFaultCaught(FaultInjection::DropForwardEdge);
}

} // namespace
} // namespace testing
} // namespace nachos
