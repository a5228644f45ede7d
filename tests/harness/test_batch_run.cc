/**
 * Cross-request grouped execution: a coalesced group's per-request
 * results must be byte-identical (digests, cycles, energy — the full
 * encoded outcome) to running each request alone through runWorkload,
 * including groups with mixed backends and uneven invocation counts.
 * The lane-boundary hooks see every lane in order and can skip one.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/batch_run.hh"
#include "harness/run_json.hh"
#include "harness/runner.hh"
#include "support/json.hh"
#include "workloads/benchmark_info.hh"

namespace nachos {
namespace {

RunRequest
request(uint64_t seed, bool lsq, bool sw, bool nachos,
        uint64_t invocations = 0)
{
    RunRequest req;
    req.seed = seed;
    req.runLsq = lsq;
    req.runSw = sw;
    req.runNachos = nachos;
    req.invocationsOverride = invocations;
    return req;
}

/** Collects every member's result, in order. */
struct Collect : GroupHooks
{
    std::vector<BatchRunResult> results;

    void
    memberDone(size_t i, BatchRunResult &r) override
    {
        EXPECT_EQ(i, results.size());
        results.push_back(std::move(r));
    }
};

std::vector<BatchRunResult>
runCollected(const std::vector<BatchRunItem> &items, RegionCache &cache,
             HierarchyPool &pool)
{
    Collect collect;
    runGroup(items, cache, pool, collect);
    return std::move(collect.results);
}

/** The daemon-visible bytes for a grouped result. */
std::string
groupedOutcomeJson(const BenchmarkInfo &info, const RunRequest &req,
                   const BatchRunResult &r)
{
    const OutcomeSummary summary = summarizeOutcome(
        info, req, r.entry->analysis, r.entry->mdes,
        r.lsq ? &*r.lsq : nullptr, r.sw ? &*r.sw : nullptr,
        r.nachos ? &*r.nachos : nullptr);
    std::string out;
    JsonWriter w(out);
    encodeOutcomeTo(w, summary);
    return out;
}

/** The same bytes through the direct, uncached path. */
std::string
directOutcomeJson(const BenchmarkInfo &info, const RunRequest &req)
{
    const RunOutcome outcome = runWorkload(info, req);
    return dumpJson(encodeRunOutcome(info, req, outcome));
}

TEST(SameRegionWork, KeyFields)
{
    const BenchmarkInfo &gzip = *findBenchmark("164.gzip");
    const BenchmarkInfo &art = *findBenchmark("179.art");
    const RunRequest a = request(1, true, true, true);
    EXPECT_TRUE(sameRegionWork(gzip, a, gzip, a));
    // Backends and invocations may differ within a group...
    EXPECT_TRUE(sameRegionWork(gzip, a, gzip,
                               request(1, false, false, true, 5)));
    // ...but workload, seed, pathIndex, and pipeline flags may not.
    EXPECT_FALSE(sameRegionWork(gzip, a, art, a));
    EXPECT_FALSE(
        sameRegionWork(gzip, a, gzip, request(2, true, true, true)));
    RunRequest otherPath = a;
    otherPath.pathIndex = 1;
    EXPECT_FALSE(sameRegionWork(gzip, a, gzip, otherPath));
    RunRequest stage3Off = a;
    stage3Off.pipeline.stage3 = false;
    EXPECT_FALSE(sameRegionWork(gzip, a, gzip, stage3Off));
}

TEST(BackendLanes, CountsRequestedBackends)
{
    EXPECT_EQ(backendLanes(request(1, true, true, true)), 3u);
    EXPECT_EQ(backendLanes(request(1, false, true, false)), 1u);
    EXPECT_EQ(backendLanes(request(1, false, false, false)), 0u);
}

TEST(BatchRun, SingletonMatchesDirectRunner)
{
    const BenchmarkInfo &info = *findBenchmark("179.art");
    RegionCache cache(4);
    HierarchyPool pool;
    const RunRequest req = request(3, true, true, true, 2);
    const std::vector<BatchRunItem> items{{&info, &req}};
    const auto results = runCollected(items, cache, pool);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(groupedOutcomeJson(info, req, results[0]),
              directOutcomeJson(info, req));
}

TEST(BatchRun, CoalescedGroupMatchesDirectRunnerPerRequest)
{
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    RegionCache cache(4);
    HierarchyPool pool;
    // Mixed backends and uneven invocation counts in one group.
    const std::vector<RunRequest> reqs = {
        request(1, true, true, true, 1),
        request(1, false, false, true, 3),
        request(1, true, false, false, 2),
        request(1, false, true, true, 1),
    };
    std::vector<BatchRunItem> items;
    for (const RunRequest &req : reqs)
        items.push_back({&info, &req});
    const auto results = runCollected(items, cache, pool);
    ASSERT_EQ(results.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(groupedOutcomeJson(info, reqs[i], results[i]),
                  directOutcomeJson(info, reqs[i]))
            << "request " << i;
    }
}

TEST(BatchRun, MachineHomogeneousGroupMatchesDirectRunner)
{
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    RegionCache cache(4);
    HierarchyPool pool;
    // Every lane runs on the overridden machine — the coalescer only
    // ever hands runGroup machine-homogeneous groups, and the grouped
    // results must still match the direct runner per request.
    MachineOverrides machine;
    machine.dramLatency = 600;
    machine.lsqBanks = 2;
    std::vector<RunRequest> reqs = {
        request(1, true, true, true, 2),
        request(1, false, true, true, 3),
        request(1, true, false, false, 1),
    };
    for (RunRequest &req : reqs)
        req.machine = machine;
    std::vector<BatchRunItem> items;
    for (const RunRequest &req : reqs)
        items.push_back({&info, &req});
    const auto results = runCollected(items, cache, pool);
    ASSERT_EQ(results.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(groupedOutcomeJson(info, reqs[i], results[i]),
                  directOutcomeJson(info, reqs[i]))
            << "request " << i;
    }
}

TEST(BatchRun, CacheHitRunMatchesCacheMissRun)
{
    const BenchmarkInfo &info = *findBenchmark("179.art");
    RegionCache cache(4);
    HierarchyPool pool;
    const RunRequest req = request(5, false, true, true, 2);
    const std::vector<BatchRunItem> items{{&info, &req}};
    const auto miss = runCollected(items, cache, pool);
    const auto hit = runCollected(items, cache, pool);
    ASSERT_EQ(miss.size(), 1u);
    ASSERT_EQ(hit.size(), 1u);
    EXPECT_FALSE(miss[0].cacheHit);
    EXPECT_TRUE(hit[0].cacheHit);
    EXPECT_EQ(groupedOutcomeJson(info, req, hit[0]),
              groupedOutcomeJson(info, req, miss[0]));
}

/** Records the lane-boundary calls and skips member 0's later lanes. */
struct SkipAfterFirstLane : Collect
{
    std::vector<std::string> calls;
    int lanesOfMember0 = 0;

    bool
    runLane(size_t i) override
    {
        calls.push_back("lane " + std::to_string(i));
        return i != 0 || lanesOfMember0++ == 0;
    }

    void
    betweenLanes() override
    {
        calls.push_back("between");
    }

    void
    memberDone(size_t i, BatchRunResult &r) override
    {
        calls.push_back("done " + std::to_string(i));
        Collect::memberDone(i, r);
    }
};

TEST(BatchRun, HooksSeeEveryLaneBoundaryAndCanSkipLanes)
{
    const BenchmarkInfo &info = *findBenchmark("164.gzip");
    RegionCache cache(4);
    HierarchyPool pool;
    const std::vector<RunRequest> reqs = {
        request(1, true, true, true, 1),
        request(1, false, true, true, 2),
    };
    std::vector<BatchRunItem> items;
    for (const RunRequest &req : reqs)
        items.push_back({&info, &req});
    SkipAfterFirstLane hooks;
    runGroup(items, cache, pool, hooks);

    // Member 0 runs only its OPT-LSQ lane; betweenLanes follows a lane
    // that ran, never the group's last one.
    const std::vector<std::string> want = {
        "lane 0", "between", "lane 0", "lane 0", "done 0",
        "lane 1", "between", "lane 1", "done 1"};
    EXPECT_EQ(hooks.calls, want);
    ASSERT_EQ(hooks.results.size(), 2u);
    EXPECT_EQ(hooks.results[0].lanesSkipped, 2u);
    EXPECT_TRUE(hooks.results[0].lsq.has_value());
    EXPECT_FALSE(hooks.results[0].sw.has_value());
    EXPECT_FALSE(hooks.results[0].nachos.has_value());
    EXPECT_EQ(hooks.results[1].lanesSkipped, 0u);
    EXPECT_EQ(groupedOutcomeJson(info, reqs[1], hooks.results[1]),
              directOutcomeJson(info, reqs[1]));
}

} // namespace
} // namespace nachos
