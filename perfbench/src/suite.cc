/**
 * @file
 * `suite`: the Fig. 15 set — the hottest path of all 27 workloads,
 * under all three backends, at each descriptor's invocation count —
 * run through runSuite as repeated passes. Three passes in four run
 * on one thread; every fourth runs on kParallelThreads, which
 * exercises support/thread_pool. Nearly all of a pass is steady-state
 * simulate(), so this is the workload where the event queue, OPT-LSQ,
 * the MAY station and the caches do most of the work.
 */

#include "harness/suite_runner.hh"
#include "testing/reference.hh"
#include "workloads.hh"
#include "workloads/synthesizer.hh"

namespace perfbench {

namespace {

using nachos::BackendKind;
using nachos::SimResult;

/** Workers of the parallel passes: with the waiting caller, at most
 *  the four hardware threads the benchmark may load. */
constexpr unsigned kParallelThreads = 2;

constexpr BackendKind kBackends[] = {
    BackendKind::OptLsq, BackendKind::NachosSw, BackendKind::Nachos};

struct Expected
{
    uint64_t digest = 0;
    std::vector<std::pair<uint64_t, uint8_t>> image;
};

struct Setup
{
    nachos::RunRequest request;
    std::vector<Expected> expected; ///< per workload, program order
};

/** The first surface on which two results differ, or nullptr. */
const char *
firstDifference(const SimResult &a, const SimResult &b)
{
    if (a.cycles != b.cycles)
        return "cycles";
    if (a.loadValueDigest != b.loadValueDigest)
        return "digest";
    if (a.memImage != b.memImage)
        return "image";
    if (a.stats.dump() != b.stats.dump())
        return "stats";
    return nullptr;
}

const SimResult &
resultOf(const nachos::RunOutcome &o, BackendKind kind)
{
    switch (kind) {
      case BackendKind::OptLsq: return *o.lsq;
      case BackendKind::NachosSw: return *o.sw;
      case BackendKind::Nachos: return *o.nachos;
    }
    return *o.nachos;
}

/**
 * Check one workload's backend result against the reference and, when
 * given, against the first pass's result.
 */
void
check(Report &rep, const Setup &s, size_t w, BackendKind kind,
      const SimResult &r, const SimResult *first, const char *where)
{
    rep.attempt();
    const Expected &e = s.expected[w];
    const char *name = nachos::benchmarkSuite()[w].name.c_str();
    if (r.loadValueDigest != e.digest || r.memImage != e.image)
        rep.fail(std::string(where) + ": " + name + " " +
                 backendLabel(kind) + " differs from program order");
    else if (const char *diff = first ? firstDifference(r, *first) : nullptr)
        rep.fail(std::string(where) + ": " + name + " " +
                 backendLabel(kind) + " " + diff +
                 " differ from the first pass");
}

/**
 * Program-order reference for every workload, outside timed passes,
 * then one untimed warm-up pass so lazy set-up finishes first.
 */
Setup
setUp(const Options &opts, Report &rep)
{
    Setup s;
    s.request.seed = opts.seed;
    for (const nachos::BenchmarkInfo &info : nachos::benchmarkSuite()) {
        nachos::SynthesisOptions synth;
        synth.pathIndex = s.request.pathIndex;
        synth.seed = s.request.seed;
        const nachos::Region region = nachos::synthesizeRegion(info, synth);
        nachos::testing::ReferenceResult ref =
            nachos::testing::referenceExecute(region, info.invocations);
        s.expected.push_back({ref.loadValueDigest, std::move(ref.memImage)});
    }
    if (opts.injectFault)
        s.expected[0].digest ^= 1; // a checker that cannot fail verifies nothing
    const nachos::SuiteRun warm =
        nachos::runSuite(nachos::benchmarkSuite(), s.request, 1);
    for (size_t w = 0; w < warm.outcomes.size(); ++w)
        for (BackendKind kind : kBackends)
            check(rep, s, w, kind, resultOf(warm.outcomes[w], kind), nullptr,
                  "warm-up pass");
    return s;
}

std::vector<double>
setUpRepeatedly(const Options &opts, Setup &s, Report &rep)
{
    std::vector<double> seconds;
    for (unsigned i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        s = setUp(opts, rep);
        seconds.push_back(secondsBetween(t0, Clock::now()));
    }
    return seconds;
}

void
measure(const Options &opts, Report &rep)
{
    Setup s;
    const std::vector<double> setupSeconds = setUpRepeatedly(opts, s, rep);
    const auto &suite = nachos::benchmarkSuite();

    std::vector<double> passMs, parPassMs;
    std::vector<SimResult> first; // workload-major, backend-minor
    const Clock::time_point end = after(Clock::now(), opts.seconds);
    for (uint64_t pass = 0; Clock::now() < end || passMs.empty() ||
                            parPassMs.empty();
         ++pass) {
        const unsigned threads = pass % 4 == 3 ? kParallelThreads : 1;
        const Clock::time_point t0 = Clock::now();
        nachos::SuiteRun run = nachos::runSuite(suite, s.request, threads);
        (threads == 1 ? passMs : parPassMs).push_back(msSince(t0));

        for (size_t w = 0; w < suite.size(); ++w) {
            for (size_t b = 0; b < 3; ++b) {
                const SimResult &r = resultOf(run.outcomes[w], kBackends[b]);
                check(rep, s, w, kBackends[b], r,
                      first.empty() ? nullptr : &first[w * 3 + b],
                      threads == 1 ? "pass" : "parallel pass");
            }
        }
        if (first.empty())
            for (const nachos::RunOutcome &o : run.outcomes)
                for (BackendKind kind : kBackends)
                    first.push_back(resultOf(o, kind));
    }

    reportSetup(rep, setupSeconds, true);
    rep.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    const double p50 = rep.timing("suite.pass_ms.p50", passMs, 50, "ms");
    const double p90 = rep.timing("suite.pass_ms.p90", passMs, 90, "ms");
    const double par =
        rep.timing("suite.par_pass_ms.p50", parPassMs, 50, "ms");
    rep.metric("op_ms.p50", p50, "ms");
    rep.metric("op_ms.tail", p90, "ms");
    rep.metric("rate_per_s", suite.size() * 1e3 / par, "1/s");
    rep.line("op_ms = 1-thread suite pass (tail = p90); rate_per_s = "
             "workloads per second in the " +
             std::to_string(kParallelThreads) + "-thread passes");
    rep.unitMs(p50);
}

/** The traced run: runWorkload's steps one at a time, in spans. */
void
measureTraced(const Options &opts, Report &rep)
{
    Setup s;
    const std::vector<double> setupSeconds = setUpRepeatedly(opts, s, rep);
    const auto &suite = nachos::benchmarkSuite();
    const size_t spansPerPass = 1 + suite.size() * 7;
    Tracer tracer(spansPerPass * 400);
    nachos::HierarchyPool pool;

    std::vector<SimResult> first;
    Fingerprint fp;
    ModelCounts counts;
    double dynOps = 0; // ops x invocations of the timed sim calls
    const Clock::time_point end = after(Clock::now(), opts.seconds);
    // Pass 0 warms the pool; pass 1 is the counted pass.
    uint32_t pass = 0;
    for (; (Clock::now() < end || pass < 2) &&
           !tracer.nearlyFull(spansPerPass);
         ++pass) {
        tracer.setPass(pass);
        Tracer::Scope passSpan(tracer, "suite.pass", pass);
        for (size_t w = 0; w < suite.size(); ++w) {
            const nachos::BenchmarkInfo &info = suite[w];
            Tracer::Scope wlSpan(tracer, "suite.workload", w);
            nachos::SynthesisOptions synth;
            synth.pathIndex = s.request.pathIndex;
            synth.seed = s.request.seed;
            nachos::Region region{"empty"};
            {
                Tracer::Scope sp(tracer, "workloads.synth", w);
                region = nachos::synthesizeRegion(info, synth);
            }
            nachos::AliasAnalysisResult analysis;
            {
                Tracer::Scope sp(tracer, "analysis.pipeline", w);
                analysis =
                    nachos::runAliasPipeline(region, s.request.pipeline);
            }
            nachos::MdeSet mdes;
            {
                Tracer::Scope sp(tracer, "mde.insert", w);
                mdes = nachos::insertMdes(region, analysis.matrix);
            }
            nachos::SimConfig cfg;
            cfg.invocations = info.invocations;
            for (size_t b = 0; b < 3; ++b) {
                SimResult r;
                {
                    Tracer::Scope sp(tracer, simSpanName(kBackends[b]), w);
                    r = nachos::simulate(region, mdes, kBackends[b], cfg,
                                         pool);
                }
                if (pass >= 1)
                    dynOps += static_cast<double>(region.numOps()) *
                              cfg.invocations;
                check(rep, s, w, kBackends[b], r,
                      pass == 0 ? nullptr : &first[w * 3 + b],
                      "traced pass");
                if (pass == 1) {
                    fp.add(r);
                    counts.add(kBackends[b], r);
                }
                if (pass == 0)
                    first.push_back(std::move(r));
            }
        }
    }

    reportSetup(rep, setupSeconds, false);
    const auto timed = tracer.aggregate(
        [](const Span &sp) { return sp.pass >= 1; });
    const auto counted = tracer.aggregate(
        [](const Span &sp) { return sp.pass == 1; });
    reportLayerMetrics(rep, timed, counted, dynOps);
    reportServiceMetrics(rep, {});
    counts.report(rep);
    reportFingerprint(rep, fp, suite.size() * 3);
    rep.metric("bench.unattributed_pct", tracer.unattributedPct(), "%");
    std::vector<double> passes = tracer.rootDurationsMs("suite.pass");
    passes.erase(passes.begin()); // warm-up pass
    const double p50 = rep.timing("traced suite pass", passes, 50, "ms");
    rep.unitMs(p50);
    if (!opts.traceOut.empty() && !tracer.write(opts.traceOut))
        rep.fail("cannot write " + opts.traceOut);
    rep.line("traced passes: " + std::to_string(pass) + ", spans: " +
             std::to_string(tracer.size()) + " -> " + opts.traceOut);
}

} // namespace

void
runSuiteWorkload(const Options &opts, Report &rep)
{
    if (opts.trace)
        measureTraced(opts, rep);
    else
        measure(opts, rep);
}

} // namespace perfbench
