/**
 * A compiled region (placement + firing tables) is shared by every run
 * of the region on one machine. These tests pin what makes sharing
 * safe: a run on a shared CompiledRegion equals the region-path
 * simulate() that compiles for itself, whatever lane it is; concurrent
 * runs of one CompiledRegion agree; and a run on another machine than
 * the one the region was compiled for is refused.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.hh"
#include "cgra/compiled_region.hh"
#include "cgra/simulator.hh"
#include "mde/inserter.hh"
#include "testing/region_gen.hh"

namespace nachos {
namespace {

struct Lane
{
    BackendKind kind;
    uint32_t lsqBanks;
};

/** The differential fuzzer's six lanes. */
const Lane kFuzzLanes[] = {
    {BackendKind::OptLsq, 1},   {BackendKind::OptLsq, 2},
    {BackendKind::OptLsq, 4},   {BackendKind::OptLsq, 8},
    {BackendKind::NachosSw, 4}, {BackendKind::Nachos, 4},
};

SimConfig
laneConfig(const Lane &lane)
{
    SimConfig cfg;
    cfg.invocations = 6;
    cfg.recordMemTrace = true;
    cfg.lsq.banks = lane.lsqBanks;
    return cfg;
}

void
expectSameResult(const SimResult &got, const SimResult &want,
                 const std::string &what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.stats.dump(), want.stats.dump()) << what;
    EXPECT_EQ(got.loadValueDigest, want.loadValueDigest) << what;
    EXPECT_EQ(got.memImage, want.memImage) << what;
    EXPECT_EQ(got.criticalOp, want.criticalOp) << what;
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

struct Case
{
    Region region;
    MdeSet mdes;
};

Case
fuzzCase(uint64_t seed)
{
    Region region = testing::generateRegion(seed, {});
    MdeSet mdes = insertMdes(region, runAliasPipeline(region).matrix);
    return {std::move(region), std::move(mdes)};
}

TEST(CompiledRegion, EveryFuzzLaneMatchesTheRegionPath)
{
    for (uint64_t seed = 0; seed < 12; ++seed) {
        const Case c = fuzzCase(seed);
        const CompiledRegion compiled(c.region);
        HierarchyPool pool;
        for (const Lane &lane : kFuzzLanes) {
            const SimConfig cfg = laneConfig(lane);
            const SimResult shared =
                simulate(compiled, c.mdes, lane.kind, cfg, pool);
            const SimResult own = simulate(c.region, c.mdes, lane.kind, cfg);
            expectSameResult(shared, own,
                             "seed " + std::to_string(seed) + " " +
                                 backendName(lane.kind) + " banks " +
                                 std::to_string(lane.lsqBanks));
        }
    }
}

TEST(CompiledRegion, ANonDefaultMachineMatchesTheRegionPath)
{
    const Case c = fuzzCase(3);
    SimConfig cfg = laneConfig(kFuzzLanes[5]);
    cfg.grid = {8, 8};
    cfg.net.hopsPerCycle = 1;
    cfg.net.minLatency = 2;
    const CompiledRegion compiled(c.region, cfg.grid, cfg.net);
    HierarchyPool pool;
    expectSameResult(simulate(compiled, c.mdes, BackendKind::Nachos, cfg,
                              pool),
                     simulate(c.region, c.mdes, BackendKind::Nachos, cfg),
                     "8x8 grid, 1 hop/cycle");
}

TEST(CompiledRegion, RecompilingReusesTheObjectForAnotherRegion)
{
    const Case a = fuzzCase(5);
    const Case b = fuzzCase(6);
    CompiledRegion compiled;
    HierarchyPool pool;
    const SimConfig cfg = laneConfig(kFuzzLanes[4]);
    for (const Case *c : {&a, &b, &a}) {
        compiled.compile(c->region, cfg.grid, cfg.net);
        expectSameResult(
            simulate(compiled, c->mdes, BackendKind::NachosSw, cfg, pool),
            simulate(c->region, c->mdes, BackendKind::NachosSw, cfg),
            c->region.name());
    }
}

TEST(CompiledRegion, ConcurrentRunsOfOneCompiledRegionAgree)
{
    const Case c = fuzzCase(7);
    const CompiledRegion compiled(c.region);
    const auto runAll = [&](std::vector<SimResult> &out) {
        HierarchyPool pool;
        for (int round = 0; round < 3; ++round) {
            for (const Lane &lane : kFuzzLanes) {
                out.push_back(simulate(compiled, c.mdes, lane.kind,
                                       laneConfig(lane), pool));
            }
        }
    };
    std::vector<SimResult> first;
    std::vector<SimResult> second;
    std::thread t1([&] { runAll(first); });
    std::thread t2([&] { runAll(second); });
    t1.join();
    t2.join();
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        expectSameResult(first[i], second[i], "run " + std::to_string(i));
}

TEST(CompiledRegionDeathTest, AnotherGridIsFatal)
{
    const Case c = fuzzCase(1);
    const CompiledRegion compiled(c.region);
    SimConfig cfg;
    cfg.grid = {16, 16};
    HierarchyPool pool;
    EXPECT_DEATH(
        simulate(compiled, c.mdes, BackendKind::OptLsq, cfg, pool),
        "compiled for a 32x32 grid");
}

TEST(CompiledRegionDeathTest, AnotherNetworkIsFatal)
{
    const Case c = fuzzCase(1);
    const CompiledRegion compiled(c.region);
    SimConfig cfg;
    cfg.net.hopsPerCycle = 2;
    HierarchyPool pool;
    EXPECT_DEATH(
        simulate(compiled, c.mdes, BackendKind::Nachos, cfg, pool),
        "at 4 hops/cycle");
}

} // namespace
} // namespace nachos
