/**
 * @file
 * Parallel experiment engine: fan a workload suite out across a
 * ThreadPool and collect the RunOutcomes in deterministic suite order,
 * regardless of completion order. Bit-identical to a sequential
 * runWorkload loop at any worker count: synthesizeRegion folds the
 * workload name and path index into the request seed, so every task
 * draws from its own RNG stream and the suite order cannot leak into
 * the results.
 *
 * Every full-suite bench binary accepts `--threads N` (else the
 * NACHOS_THREADS environment variable, else all hardware threads) via
 * suiteThreads(); timing lands in a StatSet so speedup is observable
 * without touching the deterministic stdout tables.
 */

#ifndef NACHOS_HARNESS_SUITE_RUNNER_HH
#define NACHOS_HARNESS_SUITE_RUNNER_HH

#include <iosfwd>
#include <vector>

#include "harness/runner.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace nachos {

/** Result of a (possibly parallel) sweep over a workload suite. */
struct SuiteRun
{
    /** One outcome per workload, in suite order. */
    std::vector<RunOutcome> outcomes;

    /**
     * Wall-clock accounting, all in microseconds except the last two:
     *   suite.wallMicros      end-to-end wall clock of the sweep
     *   suite.taskMicros      summed per-task time (aggregate work)
     *   stage.synthMicros     summed synthesis time
     *   stage.analysisMicros  summed alias-pipeline time
     *   stage.mdeMicros       summed MDE-insertion time
     *   stage.simMicros       summed backend-simulation time
     *   suite.workloads       number of workloads run
     *   suite.threads         pool size used
     */
    StatSet timing;
};

/**
 * Run every workload of `suite` under `request` on `threads` workers.
 * Outcomes are returned in suite order; threads=1 is the sequential
 * path (and is asserted equal to a runWorkload loop in the tests).
 */
SuiteRun runSuite(const std::vector<BenchmarkInfo> &suite,
                  const RunRequest &request = {},
                  unsigned threads = ThreadPool::defaultThreadCount());

/**
 * Worker count for a bench binary: `--threads N` / `--threads=N` from
 * argv if present, else ThreadPool::defaultThreadCount() (which
 * honors NACHOS_THREADS). Exits via fatal() on a malformed value.
 */
unsigned suiteThreads(int argc, char *const argv[]);

/**
 * One-line timing summary of a SuiteRun. Benches print this to
 * std::cerr so stdout tables stay byte-identical across thread
 * counts.
 */
void printSuiteTiming(std::ostream &os, const SuiteRun &run);

} // namespace nachos

#endif // NACHOS_HARNESS_SUITE_RUNNER_HH
