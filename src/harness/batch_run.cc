#include "harness/batch_run.hh"

#include <chrono>

#include "support/logging.hh"

namespace nachos {

bool
sameRegionWork(const BenchmarkInfo &aInfo, const RunRequest &a,
               const BenchmarkInfo &bInfo, const RunRequest &b)
{
    return &aInfo == &bInfo && a.pathIndex == b.pathIndex &&
           a.seed == b.seed &&
           a.pipeline.stage2 == b.pipeline.stage2 &&
           a.pipeline.stage3 == b.pipeline.stage3 &&
           a.pipeline.stage4 == b.pipeline.stage4;
}

uint32_t
backendLanes(const RunRequest &request)
{
    return (request.runLsq ? 1u : 0u) + (request.runSw ? 1u : 0u) +
           (request.runNachos ? 1u : 0u);
}

void
runGroup(const std::vector<BatchRunItem> &items, RegionCache &cache,
         HierarchyPool &pool, GroupHooks &hooks)
{
    NACHOS_ASSERT(!items.empty(), "group must be non-empty");
    for (const BatchRunItem &item : items)
        NACHOS_ASSERT(sameRegionWork(*items[0].info, *items[0].request,
                                     *item.info, *item.request),
                      "group mixes region work");

    using clock = std::chrono::steady_clock;
    auto secondsSince = [](clock::time_point t0) {
        return std::chrono::duration<double>(clock::now() - t0).count();
    };

    const clock::time_point start = clock::now();
    bool hit = false;
    const std::shared_ptr<const RegionCacheEntry> entry =
        cache.acquire(*items[0].info, *items[0].request, &hit);
    const double frontSeconds = secondsSince(start);

    bool laneRan = false; ///< since the last betweenLanes()
    for (size_t i = 0; i < items.size(); ++i) {
        const RunRequest &request = *items[i].request;
        const SimConfig sim = simConfigFor(*items[i].info, request);
        BatchRunResult r;
        r.entry = entry;
        r.cacheHit = hit;
        // The front end ran once for the group; charge it to the first
        // member so per-stage totals still sum to wall time.
        if (i == 0)
            r.times.synthSeconds = frontSeconds;

        const struct
        {
            bool wanted;
            BackendKind kind;
            std::optional<SimResult> *out;
        } lanes[] = {{request.runLsq, BackendKind::OptLsq, &r.lsq},
                     {request.runSw, BackendKind::NachosSw, &r.sw},
                     {request.runNachos, BackendKind::Nachos, &r.nachos}};
        for (const auto &lane : lanes) {
            if (!lane.wanted)
                continue;
            if (laneRan) {
                hooks.betweenLanes();
                laneRan = false;
            }
            if (!hooks.runLane(i)) {
                ++r.lanesSkipped;
                continue;
            }
            const clock::time_point simStart = clock::now();
            *lane.out = simulate(entry->region, entry->mdes, lane.kind,
                                 sim, pool);
            r.times.simSeconds += secondsSince(simStart);
            laneRan = true;
        }
        hooks.memberDone(i, r);
    }
}

} // namespace nachos
