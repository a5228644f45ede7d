/**
 * @file
 * `fuzz`: testing::runFuzz with the default FuzzOptions on one thread,
 * cycling over the fixed seed range [0, kRangeSeeds) — the start of the
 * fuzzer's own default range — kBlockSeeds seeds per runFuzz call; the
 * benchmark seed picks the block the cycle starts at. Each seed is a
 * tiny generated region simulated six times at six invocations, so
 * per-call simulate() set-up weighs far more here than in `suite`: a
 * change trading set-up against steady-state dispatch moves the two
 * workloads in opposite directions.
 */

#include <cstdio>

#include "analysis/pipeline.hh"
#include "mde/inserter.hh"
#include "testing/diff_fuzzer.hh"
#include "testing/reference.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using nachos::BackendKind;
using nachos::SimResult;
namespace nt = nachos::testing;

constexpr uint64_t kBlockSeeds = 128;
constexpr uint64_t kRangeSeeds = 4096;
/** Seeds of the traced run whose counts repeat exactly. */
constexpr uint64_t kCountedSeeds = 256;

constexpr uint64_t kBlocks = kRangeSeeds / kBlockSeeds;

/** First fuzz seed of the `b`-th block a run checks. */
uint64_t
blockStart(const Options &opts, uint64_t b)
{
    return (opts.seed + b) % kBlocks * kBlockSeeds;
}

nt::FuzzOptions
fuzzOptions(const Options &opts)
{
    nt::FuzzOptions fo;
    if (opts.injectFault) {
        // The fuzzer's own mutation self-test: dropping an ORDER edge
        // must surface as failed seeds.
        fo.fault = nt::FaultInjection::DropOrderEdge;
        fo.shrinkFailures = false;
    }
    return fo;
}

std::vector<double>
setUpRepeatedly(const Options &opts)
{
    // Set-up is one untimed block: it builds the thread pool and warms
    // the allocator, as any first runFuzz call does.
    std::vector<double> seconds;
    for (unsigned i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        nt::runFuzz(blockStart(opts, 0), kBlockSeeds, fuzzOptions(opts));
        seconds.push_back(secondsBetween(t0, Clock::now()));
    }
    return seconds;
}

void
record(Report &rep, const nt::FuzzSummary &sum, uint64_t expectedCases)
{
    rep.attempt(expectedCases);
    if (sum.cases != expectedCases)
        for (uint64_t i = sum.cases; i < expectedCases; ++i)
            rep.fail("runFuzz stopped early: seed not checked");
    for (const nt::FuzzCaseOutcome &o : sum.failed) {
        std::string what = o.mismatches.empty()
                               ? "?"
                               : o.mismatches[0].check + " on " +
                                     o.mismatches[0].backend;
        rep.fail("fuzz seed " + std::to_string(o.seed) + ": " + what);
    }
    // runFuzz keeps at most max_failures outcomes; count the rest.
    for (uint64_t i = sum.failed.size(); i < sum.failures; ++i)
        rep.fail("fuzz seed failed (outcome not kept)");
}

void
measure(const Options &opts, Report &rep)
{
    const std::vector<double> setupSeconds = setUpRepeatedly(opts);
    const nt::FuzzOptions fo = fuzzOptions(opts);
    std::vector<double> blockMs;
    double totalMs = 0;
    uint64_t seeds = 0;
    const Clock::time_point end = after(Clock::now(), opts.seconds);
    for (uint64_t b = 0; Clock::now() < end || b == 0; ++b) {
        const Clock::time_point t0 = Clock::now();
        const nt::FuzzSummary sum =
            nt::runFuzz(blockStart(opts, b), kBlockSeeds, fo);
        const double ms = msSince(t0);
        blockMs.push_back(ms);
        totalMs += ms;
        seeds += sum.cases;
        record(rep, sum, kBlockSeeds);
    }

    reportSetup(rep, setupSeconds, true);
    rep.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    const double p50 = rep.timing("fuzz.block_ms.p50", blockMs, 50, "ms");
    const double p90 = rep.timing("fuzz.block_ms.p90", blockMs, 90, "ms");
    const double rate = seeds * 1e3 / totalMs;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%-28s %12.1f seeds/s  (%llu seeds in %zu blocks)",
                  "fuzz.seeds_per_s", rate,
                  static_cast<unsigned long long>(seeds), blockMs.size());
    rep.line(buf);
    rep.metric("op_ms.p50", p50, "ms");
    rep.metric("op_ms.tail", p90, "ms");
    rep.metric("rate_per_s", rate, "1/s");
    rep.line("op_ms = one " + std::to_string(kBlockSeeds) +
             "-seed runFuzz call (tail = p90); rate_per_s = seeds "
             "checked per second");
    rep.unitMs(totalMs / seeds);
}

/**
 * The traced run: checkRegion's steps one at a time (generation,
 * oracle, analysis, MDE insertion, the six backend lanes), then
 * checkRegion itself on the same region.
 */
void
measureTraced(const Options &opts, Report &rep)
{
    const std::vector<double> setupSeconds = setUpRepeatedly(opts);
    const nt::FuzzOptions fo = fuzzOptions(opts);
    constexpr size_t kSpansPerSeed = 12;
    Tracer tracer(kSpansPerSeed * 50000);
    nachos::HierarchyPool pool;

    struct Lane
    {
        BackendKind kind;
        nachos::SimConfig cfg;
    };
    std::vector<Lane> lanes;
    nachos::SimConfig cfg;
    cfg.invocations = fo.invocations;
    cfg.recordMemTrace = true; // as checkRegion simulates
    for (uint32_t banks : fo.lsqBankSweep) {
        nachos::SimConfig c = cfg;
        c.lsq.banks = banks;
        lanes.push_back({BackendKind::OptLsq, c});
    }
    lanes.push_back({BackendKind::NachosSw, cfg});
    lanes.push_back({BackendKind::Nachos, cfg});

    Fingerprint fp;
    ModelCounts counts;
    uint64_t fpResults = 0;
    double dynOps = 0;
    double genCheckMs = 0;
    uint64_t n = 0;
    const Clock::time_point end = after(Clock::now(), opts.seconds);
    for (; (Clock::now() < end || n < kCountedSeeds) &&
           !tracer.nearlyFull(kSpansPerSeed);
         ++n) {
        const uint64_t seed =
            (blockStart(opts, 0) + n) % kRangeSeeds;
        const bool counted = n < kCountedSeeds;
        tracer.setPass(counted ? 1 : 2);
        Tracer::Scope seedSpan(tracer, "fuzz.seed", seed);
        const Clock::time_point g0 = Clock::now();
        nachos::Region region{"empty"};
        {
            Tracer::Scope sp(tracer, "testing.gen", seed);
            region = nt::generateRegion(seed, fo.gen);
        }
        genCheckMs += msSince(g0);
        nt::ReferenceResult ref;
        {
            Tracer::Scope sp(tracer, "testing.oracle", seed);
            ref = nt::referenceExecute(region, fo.invocations);
        }
        nachos::AliasAnalysisResult analysis;
        {
            Tracer::Scope sp(tracer, "analysis.pipeline", seed);
            analysis = nachos::runAliasPipeline(region);
        }
        nachos::MdeSet mdes;
        {
            Tracer::Scope sp(tracer, "mde.insert", seed);
            mdes = nachos::insertMdes(region, analysis.matrix);
        }
        bool ok = true;
        for (const Lane &lane : lanes) {
            SimResult r;
            {
                Tracer::Scope sp(tracer, simSpanName(lane.kind), seed);
                r = nachos::simulate(region, mdes, lane.kind, lane.cfg,
                                     pool);
            }
            dynOps += static_cast<double>(region.numOps()) *
                      lane.cfg.invocations;
            ok = ok && r.loadValueDigest == ref.loadValueDigest &&
                 r.memImage == ref.memImage;
            if (counted) {
                fp.add(r);
                counts.add(lane.kind, r);
                ++fpResults;
            }
        }
        const Clock::time_point c0 = Clock::now();
        std::vector<nt::FuzzMismatch> mismatches;
        {
            Tracer::Scope sp(tracer, "testing.check", seed);
            mismatches = nt::checkRegion(region, fo);
        }
        genCheckMs += msSince(c0);
        rep.attempt();
        if (!ok || !mismatches.empty())
            rep.fail("fuzz seed " + std::to_string(seed) +
                     (mismatches.empty() ? ": backend differs from oracle"
                                         : ": " + mismatches[0].check));
    }

    reportSetup(rep, setupSeconds, false);
    const auto timed = tracer.aggregate([](const Span &) { return true; });
    const auto counted = tracer.aggregate(
        [](const Span &sp) { return sp.pass == 1; });
    reportLayerMetrics(rep, timed, counted, dynOps);
    reportServiceMetrics(rep, {});
    counts.report(rep);
    reportFingerprint(rep, fp, fpResults);
    rep.metric("bench.unattributed_pct", tracer.unattributedPct(), "%");
    rep.unitMs(genCheckMs / n);
    if (!opts.traceOut.empty() && !tracer.write(opts.traceOut))
        rep.fail("cannot write " + opts.traceOut);
    rep.line("traced seeds: " + std::to_string(n) + ", spans: " +
             std::to_string(tracer.size()) + " -> " + opts.traceOut);
}

} // namespace

void
runFuzzWorkload(const Options &opts, Report &rep)
{
    if (opts.trace)
        measureTraced(opts, rep);
    else
        measure(opts, rep);
}

} // namespace perfbench
