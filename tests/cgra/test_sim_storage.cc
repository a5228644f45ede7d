/**
 * Reused engine storage: a warm simulate() takes the event queue, wave
 * buffer, op state and operand arena from storage kept per thread (the
 * region-path overloads also compile into a per-thread slot), and the
 * memory hierarchy from a HierarchyPool. These
 * tests pin the two promises that make that safe: a warm run
 * allocates no more than its result and its backend's tables, however
 * many invocations it runs and whatever region or lane ran before it,
 * and whatever ran before on the thread (a larger region, another
 * machine, another backend) cannot change a result.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <thread>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "cgra/sw_backend.hh"
#include "ir/builder.hh"
#include "mde/inserter.hh"
#include "support/alloc_hook.hh"
#include "workloads/benchmark_info.hh"
#include "workloads/synthesizer.hh"

namespace nachos {
namespace {

/**
 * Fixed footprint: every address is a constant, so functional-memory
 * pages do not grow with the invocation index. The accesses conflict,
 * so OPT-LSQ allocates, forwards, stalls on partial overlaps and
 * commits across banks, and the two pointer params leave MAY edges
 * for the NACHOS comparators.
 */
Region
fixedFootprintRegion()
{
    RegionBuilder b("fixed_footprint");
    ObjectId a = b.object("A", 4096);
    ParamId p = b.pointerParam("p", a, 0);
    ParamId q = b.pointerParam("q", a, 8);
    OpId x = b.liveIn();
    b.store(b.at(a, 0), x);
    OpId fwd = b.load(b.at(a, 0));              // exact match: forwards
    b.store(b.atParam(p, 4), fwd, 4);           // MAY vs q
    OpId viaQ = b.load(b.atParam(q, 0));        // MAY vs p
    OpId part = b.load(b.at(a, 4));             // partial overlaps
    b.store(b.at(a, 64), b.iadd(viaQ, part));   // next line (bank)
    OpId span = b.load(b.at(a, 60));            // spans both lines
    b.liveOut(b.iadd(span, fwd));
    return b.build();
}

struct Lane
{
    BackendKind kind;
    uint32_t lsqBanks;
    /**
     * What a warm run of fixedFootprintRegion() may allocate: its
     * result's memory image (two) and its backend's per-run tables —
     * OPT-LSQ's queue, banks and watcher lists, NACHOS's stations —
     * whatever the invocation count.
     */
    uint64_t maxWarmAllocs;
};

const Lane kLanes[] = {
    {BackendKind::OptLsq, 1, 30},
    {BackendKind::OptLsq, 4, 30},
    {BackendKind::NachosSw, 4, 10},
    {BackendKind::Nachos, 4, 20},
};

/**
 * A region unlike fixedFootprintRegion() in shape and size, over the
 * same object: warming on it touches the same memory pages, but none
 * of the measured region's tables.
 */
Region
otherRegion()
{
    RegionBuilder b("other");
    ObjectId a = b.object("A", 4096);
    OpId x = b.liveIn();
    OpId sum = x;
    for (int64_t i = 0; i < 12; ++i) {
        b.store(b.at(a, 8 * i), b.iadd(sum, x));
        sum = b.iadd(sum, b.load(b.at(a, 8 * (11 - i))));
    }
    b.liveOut(sum);
    return b.build();
}

/**
 * Allocations of one simulate() of `r` under `lane`, right after a run
 * of a different region under a different lane on the same thread.
 */
uint64_t
allocationsAfterOtherWork(const Region &r, const MdeSet &mdes,
                          const Lane &lane, const Region &other,
                          const MdeSet &otherMdes, const Lane &otherLane,
                          uint64_t invocations, HierarchyPool &pool)
{
    SimConfig cfg;
    cfg.invocations = invocations;
    cfg.lsq.banks = otherLane.lsqBanks;
    (void)simulate(other, otherMdes, otherLane.kind, cfg, pool);
    cfg.lsq.banks = lane.lsqBanks;
    const uint64_t before = threadAllocCount();
    const SimResult res = simulate(r, mdes, lane.kind, cfg, pool);
    const uint64_t allocs = threadAllocCount() - before;
    EXPECT_GT(res.cycles, 0u);
    return allocs;
}

TEST(SimStorage, WarmRunAllocatesNothingPerInvocation)
{
    // Event-queue slots, counter registration and engine storage must
    // cost nothing, whichever region and lane ran before.
    const Region r = fixedFootprintRegion();
    const MdeSet mdes = insertMdes(r, runAliasPipeline(r).matrix);
    ASSERT_GT(mdes.counts().may, 0u);
    const Region other = otherRegion();
    const MdeSet otherMdes =
        insertMdes(other, runAliasPipeline(other).matrix);

    HierarchyPool pool;
    // Grow the thread's engine storage and the pooled memory once.
    for (const Lane &lane : kLanes)
        (void)allocationsAfterOtherWork(r, mdes, lane, other, otherMdes,
                                        lane, 4, pool);
    for (size_t i = 0; i < std::size(kLanes); ++i) {
        const Lane &lane = kLanes[i];
        const Lane &otherLane = kLanes[(i + 1) % std::size(kLanes)];
        const uint64_t few = allocationsAfterOtherWork(
            r, mdes, lane, other, otherMdes, otherLane, 4, pool);
        const uint64_t many = allocationsAfterOtherWork(
            r, mdes, lane, other, otherMdes, otherLane, 64, pool);
        const std::string what = std::string(backendName(lane.kind)) +
                                 " with " +
                                 std::to_string(lane.lsqBanks) +
                                 " LSQ bank(s)";
        EXPECT_EQ(many, few) << what;
        EXPECT_LE(many, lane.maxWarmAllocs) << what;
    }
}

/** One step of the isolation sequence. */
struct Step
{
    const Region *region;
    const MdeSet *mdes;
    BackendKind kind;
    SimConfig cfg;
};

void
expectSameResult(const SimResult &got, const SimResult &want,
                 const std::string &what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.stats.dump(), want.stats.dump()) << what;
    EXPECT_EQ(got.loadValueDigest, want.loadValueDigest) << what;
    EXPECT_EQ(got.memImage, want.memImage) << what;
    ASSERT_EQ(got.memCommits.size(), want.memCommits.size()) << what;
    for (size_t i = 0; i < got.memCommits.size(); ++i) {
        const MemCommit &g = got.memCommits[i];
        const MemCommit &w = want.memCommits[i];
        EXPECT_TRUE(g.op == w.op && g.invocation == w.invocation &&
                    g.cycle == w.cycle && g.addr == w.addr &&
                    g.forwarded == w.forwarded)
            << what << ": commit " << i;
    }
    EXPECT_EQ(got.planEventsDispatched, want.planEventsDispatched)
        << what;
    EXPECT_EQ(got.planEventsElided, want.planEventsElided) << what;
}

TEST(SimStorage, PooledRunsMatchRunsOnAFreshThread)
{
    const BenchmarkInfo *info = findBenchmark("183.equake");
    ASSERT_NE(info, nullptr);
    const Region large = synthesizeRegion(*info);
    const MdeSet largeMdes =
        insertMdes(large, runAliasPipeline(large).matrix);
    const Region small = fixedFootprintRegion();
    const MdeSet smallMdes =
        insertMdes(small, runAliasPipeline(small).matrix);

    SimConfig base;
    base.recordMemTrace = true;
    SimConfig manyInvocations = base;
    manyInvocations.invocations = 200;
    // A different L1 and LSQ shape: the pool rebuilds the hierarchy.
    SimConfig otherMachine = base;
    otherMachine.invocations = 20;
    otherMachine.mem.l1.sizeBytes /= 2;
    otherMachine.lsq.banks = 1;
    SimConfig few = base;
    few.invocations = 3;

    const Step steps[] = {
        {&large, &largeMdes, BackendKind::OptLsq, manyInvocations},
        {&large, &largeMdes, BackendKind::OptLsq, otherMachine},
        {&small, &smallMdes, BackendKind::Nachos, few},
        {&small, &smallMdes, BackendKind::NachosSw, otherMachine},
    };

    HierarchyPool pool;
    for (const Step &s : steps) {
        const SimResult pooled =
            simulate(*s.region, *s.mdes, s.kind, s.cfg, pool);
        SimResult fresh;
        std::thread([&] {
            fresh = simulate(*s.region, *s.mdes, s.kind, s.cfg);
        }).join();
        expectSameResult(pooled, fresh,
                         s.region->name() + " under " +
                             backendName(s.kind));
    }
}

TEST(SimStorageDeathTest, SecondLiveCoreOnAThreadIsFatal)
{
    const Region r = fixedFootprintRegion();
    const MdeSet mdes = insertMdes(r, runAliasPipeline(r).matrix);
    const SimConfig cfg;
    const CompiledRegion compiled(r, cfg.grid, cfg.net);
    EXPECT_DEATH(
        {
            HierarchyPool pool1;
            HierarchyPool pool2;
            SwBackend backend1(r, mdes);
            SwBackend backend2(r, mdes);
            SimCore first(compiled, mdes, backend1, cfg, pool1);
            SimCore second(compiled, mdes, backend2, cfg, pool2);
        },
        "another SimCore is live");
}

} // namespace
} // namespace nachos
