/**
 * @file
 * Cross-request grouped execution: a group of run requests that agree
 * on their region work (same workload, pathIndex, seed, and pipeline
 * flags — sameRegionWork) shares one cached front end and then runs
 * lane by lane: one pooled simulate() per requested backend of each
 * member, in member order. Per-member invocation counts may differ, so
 * a group can mix invocation overrides.
 *
 * Lane boundaries are the unit of scheduling. Through GroupHooks the
 * caller can do other work between two lanes (the daemon serves its
 * interactive ring there), skip a member's remaining lanes (one the
 * watchdog already answered), and answer each member as soon as its
 * own lanes are done rather than at the end of the group.
 *
 * Results are byte-identical to running each request alone through
 * runWorkload — the daemon's determinism check compares exactly that.
 */

#ifndef NACHOS_HARNESS_BATCH_RUN_HH
#define NACHOS_HARNESS_BATCH_RUN_HH

#include <vector>

#include "harness/region_cache.hh"

namespace nachos {

/** True iff two requests can share a front end (and thus a group). */
bool sameRegionWork(const BenchmarkInfo &aInfo, const RunRequest &a,
                    const BenchmarkInfo &bInfo, const RunRequest &b);

/** Lanes this request contributes to a group (#backends requested). */
uint32_t backendLanes(const RunRequest &request);

/** One member of a group. Pointers must outlive the call. */
struct BatchRunItem
{
    const BenchmarkInfo *info = nullptr;
    const RunRequest *request = nullptr;
};

/** One member's results. */
struct BatchRunResult
{
    std::shared_ptr<const RegionCacheEntry> entry;
    std::optional<SimResult> lsq;
    std::optional<SimResult> sw;
    std::optional<SimResult> nachos;
    /** Front-end time on member 0; sim = this member's own lanes. */
    StageTimes times;
    bool cacheHit = false;
    /** Lanes not simulated because GroupHooks::runLane said no. */
    uint32_t lanesSkipped = 0;
};

/** What runGroup asks and tells its caller at lane boundaries. */
class GroupHooks
{
  public:
    virtual ~GroupHooks() = default;

    /** Before each lane of member `i`: false skips that lane. */
    virtual bool
    runLane(size_t i)
    {
        (void)i;
        return true;
    }

    /** After a lane, before the group's next one (not after its last). */
    virtual void betweenLanes() {}

    /** Member `i` is finished; `result` is final and may be moved. */
    virtual void memberDone(size_t i, BatchRunResult &result) = 0;
};

/**
 * Run a group of same-region requests: one cache.acquire for the
 * front end, then one simulate() on `pool` per lane. Preconditions:
 * items non-empty and pairwise sameRegionWork (the queue's group-claim
 * enforces it). `cache` may have capacity 0 (build-always). Exceptions
 * from a lane propagate; members already passed to memberDone stay
 * answered.
 */
void runGroup(const std::vector<BatchRunItem> &items, RegionCache &cache,
              HierarchyPool &pool, GroupHooks &hooks);

} // namespace nachos

#endif // NACHOS_HARNESS_BATCH_RUN_HH
