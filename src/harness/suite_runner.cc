#include "harness/suite_runner.hh"

#include <chrono>
#include <cstdlib>
#include <ostream>
#include <string>

#include "support/logging.hh"
#include "support/table.hh"

namespace nachos {

namespace {

struct TimedOutcome
{
    RunOutcome outcome;
    StageTimes times;
};

uint64_t
toMicros(double seconds)
{
    return static_cast<uint64_t>(seconds * 1e6);
}

} // namespace

SuiteRun
runSuite(const std::vector<BenchmarkInfo> &suite,
         const RunRequest &request, unsigned threads)
{
    using clock = std::chrono::steady_clock;
    const clock::time_point wall0 = clock::now();

    ThreadPool pool(threads);
    std::vector<TimedOutcome> tasks = parallelMap(
        pool, suite, [&request](const BenchmarkInfo &info, size_t) {
            TimedOutcome task;
            task.outcome = runWorkload(info, request, task.times);
            return task;
        });

    SuiteRun run;
    run.outcomes.reserve(tasks.size());
    StageTimes total;
    for (TimedOutcome &task : tasks) {
        run.outcomes.push_back(std::move(task.outcome));
        total.synthSeconds += task.times.synthSeconds;
        total.analysisSeconds += task.times.analysisSeconds;
        total.mdeSeconds += task.times.mdeSeconds;
        total.simSeconds += task.times.simSeconds;
    }
    const double wall =
        std::chrono::duration<double>(clock::now() - wall0).count();
    const uint64_t synth = toMicros(total.synthSeconds);
    const uint64_t analysis = toMicros(total.analysisSeconds);
    const uint64_t mde = toMicros(total.mdeSeconds);
    const uint64_t sim = toMicros(total.simSeconds);

    run.timing.counter("suite.wallMicros").inc(toMicros(wall));
    run.timing.counter("suite.taskMicros")
        .inc(synth + analysis + mde + sim);
    run.timing.counter("stage.synthMicros").inc(synth);
    run.timing.counter("stage.analysisMicros").inc(analysis);
    run.timing.counter("stage.mdeMicros").inc(mde);
    run.timing.counter("stage.simMicros").inc(sim);
    run.timing.counter("suite.workloads").inc(run.outcomes.size());
    run.timing.counter("suite.threads").inc(pool.size());

    // Firing-plan observability, aggregated over every backend run:
    // how much event traffic the sim stage dispatched and how much
    // eager operand delivery elided. Diagnostic only — never part of
    // the deterministic stdout surfaces.
    uint64_t dispatched = 0, elided = 0;
    for (const RunOutcome &o : run.outcomes) {
        for (const auto *r : {&o.lsq, &o.sw, &o.nachos}) {
            if (!r->has_value())
                continue;
            dispatched += (*r)->planEventsDispatched;
            elided += (*r)->planEventsElided;
        }
    }
    run.timing.counter("plan.eventsDispatched").inc(dispatched);
    run.timing.counter("plan.eventsElided").inc(elided);
    return run;
}

unsigned
suiteThreads(int argc, char *const argv[])
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--threads" && i + 1 < argc)
            value = argv[i + 1];
        else if (arg.rfind("--threads=", 0) == 0)
            value = arg.substr(10);
        else
            continue;
        char *end = nullptr;
        const unsigned long n = std::strtoul(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0' || n < 1 || n > 4096)
            NACHOS_FATAL("invalid --threads value '", value, "'");
        return static_cast<unsigned>(n);
    }
    return ThreadPool::defaultThreadCount();
}

void
printSuiteTiming(std::ostream &os, const SuiteRun &run)
{
    const StatSet &t = run.timing;
    auto ms = [&t](const char *name) {
        return fmtDouble(static_cast<double>(t.get(name)) / 1000.0, 1);
    };
    os << "suite: " << t.get("suite.workloads") << " workloads on "
       << t.get("suite.threads") << " thread(s): "
       << ms("suite.wallMicros") << " ms wall, "
       << ms("suite.taskMicros") << " ms of work (synth "
       << ms("stage.synthMicros") << ", analysis "
       << ms("stage.analysisMicros") << ", mde "
       << ms("stage.mdeMicros") << ", sim " << ms("stage.simMicros")
       << ")\n";
    const uint64_t dispatched = t.get("plan.eventsDispatched");
    const uint64_t elided = t.get("plan.eventsElided");
    if (dispatched == 0 && elided == 0)
        return;
    const double pct =
        100.0 * static_cast<double>(elided) /
        static_cast<double>(dispatched + elided);
    os << "plan: " << dispatched << " events dispatched, " << elided
       << " elided by eager delivery (" << fmtDouble(pct, 1) << "%)\n";
}

} // namespace nachos
