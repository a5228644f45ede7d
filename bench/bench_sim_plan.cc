/**
 * @file
 * µB: region-compiled firing plans (macro-op fusion, cgra/sim_tables).
 *
 * Three sections:
 *   plan build — cost of SimTables::build (arena layout + fan-out CSR
 *       + chain plan) per region, the price every fresh (region,
 *       backend, config) pays once;
 *   chain shape — static histogram of maximal fused-chain lengths and
 *       the fraction of ops covered by chains of length >= 2;
 *   fused vs unfused — the same regions simulated with fusion on and
 *       off: identity verdicts plus the plan
 *       observability counters (events elided, macro firings) on
 *       stdout, simulated-cycles/s and speedup on stderr.
 *
 * stdout carries only deterministic content (region shapes, verdicts,
 * plan counters), so the determinism harness can cmp it; wall-clock
 * numbers go to stderr and, with `--json <path>`, to a timing-record
 * file in the same format as the suite benches (tools/perf_report.py
 * reads both).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cgra/sim_tables.hh"
#include "cgra/simulator.hh"
#include "harness/run_json.hh"
#include "harness/suite_runner.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "testing/region_gen.hh"
#include "workloads/benchmark_info.hh"
#include "workloads/synthesizer.hh"

using namespace nachos;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Short git revision of the working tree, or "unknown". */
std::string
gitSha()
{
    std::string sha;
    if (FILE *pipe =
            popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64];
        if (fgets(buf, sizeof(buf), pipe))
            sha = buf;
        pclose(pipe);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

struct TimingRow
{
    std::string stage;
    double seconds = 0;
};

bool
sameResult(const SimResult &a, const SimResult &b)
{
    if (a.memCommits.size() != b.memCommits.size())
        return false;
    for (size_t i = 0; i < a.memCommits.size(); ++i) {
        const MemCommit &x = a.memCommits[i];
        const MemCommit &y = b.memCommits[i];
        if (x.op != y.op || x.invocation != y.invocation ||
            x.cycle != y.cycle || x.addr != y.addr ||
            x.forwarded != y.forwarded)
            return false;
    }
    return a.cycles == b.cycles && a.stats.dump() == b.stats.dump() &&
           a.loadValueDigest == b.loadValueDigest &&
           a.memImage == b.memImage && a.criticalOp == b.criticalOp;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    uint64_t repeats = 200;
    uint64_t simRepeats = 24;
    std::string jsonPath = suiteJsonPath(argc, argv);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--repeats" && i + 1 < argc)
            repeats = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--sim-repeats" && i + 1 < argc)
            simRepeats = std::strtoull(argv[++i], nullptr, 10);
    }

    std::vector<TimingRow> rows;
    std::cout << "uB: region-compiled firing plans (macro-op fusion)\n\n";

    // Generated regions (adversarial shapes, little fusable compute)
    // plus real suite workloads, whose address arithmetic and
    // reductions carry the single-consumer chains the plan targets.
    const std::vector<uint64_t> seeds = {3, 7, 11, 19, 42, 1337};
    std::vector<Region> regions;
    regions.reserve(seeds.size() + 3);
    for (uint64_t s : seeds)
        regions.push_back(testing::generateRegion(s, {}));
    for (const char *name : {"equake", "mcf181", "fft2d"})
        regions.push_back(synthesizeRegion(benchmarkByName(name)));

    // ---- Section 1: plan build cost ----------------------------------
    const SimConfig base;
    {
        auto t0 = std::chrono::steady_clock::now();
        size_t builds = 0;
        for (uint64_t r = 0; r < repeats; ++r) {
            for (const Region &region : regions) {
                StatSet stats;
                Placement placement(region, base.grid);
                OperandNetwork net(placement, base.net, stats);
                SimTables tables;
                tables.build(region, placement, net);
                ++builds;
            }
        }
        const double sec = secondsSince(t0);
        std::fprintf(stderr,
                     "plan build: %.1f us/region (placement + network "
                     "+ tables, %zu builds)\n",
                     sec * 1e6 / static_cast<double>(builds), builds);
        rows.push_back({"plan-build", sec});
    }

    // ---- Section 2: static chain shape -------------------------------
    // Maximal chains: a head is a chain step no other op links into;
    // its suffix length is the whole fused chain. Histogram over all
    // regions is a pure function of the generator seeds.
    {
        std::map<uint32_t, uint64_t> hist;
        uint64_t chainOps = 0, totalOps = 0;
        for (const Region &region : regions) {
            StatSet stats;
            Placement placement(region, base.grid);
            OperandNetwork net(placement, base.net, stats);
            SimTables tables;
            tables.build(region, placement, net);
            std::vector<uint8_t> interior(region.numOps(), 0);
            for (OpId op = 0; op < region.numOps(); ++op) {
                if (tables.nextInChain[op] != SimTables::kChainEnd)
                    interior[tables.nextInChain[op]] = 1;
            }
            totalOps += region.numOps();
            for (OpId op = 0; op < region.numOps(); ++op) {
                if (!tables.chainStep[op] || interior[op])
                    continue;
                const uint32_t len = tables.chainSuffix[op].len;
                ++hist[len];
                if (len >= 2)
                    chainOps += len;
            }
        }
        std::cout << "chain shape over " << regions.size()
                  << " generated regions (" << totalOps << " ops):\n";
        for (const auto &[len, count] : hist)
            std::cout << "  len " << len << ": " << count
                      << " chain(s)\n";
        std::cout << "  ops inside fused chains (len >= 2): " << chainOps
                  << " / " << totalOps << "\n";
    }

    // ---- Section 3: fused vs unfused ---------------------------------
    SimConfig fused = base;
    fused.invocations = 24;
    fused.recordMemTrace = true;
    SimConfig unfused = fused;
    unfused.fusion = false;

    bool identical = true;
    uint64_t elided = 0, dispatchedFused = 0, dispatchedUnfused = 0;
    uint64_t macroOps = 0, fusedOps = 0, cycles = 0;
    double fusedSec = 0, unfusedSec = 0;
    for (const Region &region : regions) {
        const AliasAnalysisResult analysis = runAliasPipeline(region);
        const MdeSet mdes = insertMdes(region, analysis.matrix);
        for (BackendKind kind :
             {BackendKind::OptLsq, BackendKind::NachosSw,
              BackendKind::Nachos}) {
            // Pooled hierarchy on both sides so the measured delta
            // is the engine's, not construction noise; one untimed
            // run per mode warms the pool, allocator and caches.
            HierarchyPool pool;
            simulate(region, mdes, kind, fused, pool);
            simulate(region, mdes, kind, unfused, pool);
            auto t0 = std::chrono::steady_clock::now();
            SimResult a;
            for (uint64_t r = 0; r < simRepeats; ++r)
                a = simulate(region, mdes, kind, fused, pool);
            fusedSec += secondsSince(t0);

            t0 = std::chrono::steady_clock::now();
            SimResult b;
            for (uint64_t r = 0; r < simRepeats; ++r)
                b = simulate(region, mdes, kind, unfused, pool);
            unfusedSec += secondsSince(t0);

            identical = identical && sameResult(a, b);
            elided += a.planEventsElided;
            dispatchedFused += a.planEventsDispatched;
            dispatchedUnfused += b.planEventsDispatched;
            macroOps += a.planMacroOps;
            fusedOps += a.planFusedOps;
            cycles += a.cycles;
        }
    }
    std::cout << "\nfused vs unfused (3 backends):\n"
              << "  results identical: " << (identical ? "yes" : "NO")
              << "\n  events dispatched: " << dispatchedFused
              << " fused vs " << dispatchedUnfused << " unfused ("
              << elided << " elided)\n"
              << "  macro firings: " << macroOps << " covering "
              << fusedOps << " op executions\n";
    const double spdup = fusedSec > 0 ? unfusedSec / fusedSec : 0.0;
    std::fprintf(stderr,
                 "fused %.2f Mcycles/s, unfused %.2f Mcycles/s, "
                 "speedup %.2fx\n",
                 static_cast<double>(cycles) * 1e-6 *
                     static_cast<double>(simRepeats) / fusedSec,
                 static_cast<double>(cycles) * 1e-6 *
                     static_cast<double>(simRepeats) / unfusedSec,
                 spdup);
    rows.push_back({"sim-fused", fusedSec});
    rows.push_back({"sim-unfused", unfusedSec});
    if (!identical)
        return 1;

    if (!jsonPath.empty()) {
        std::ofstream os(jsonPath);
        if (!os)
            NACHOS_FATAL("cannot write timing JSON to '", jsonPath,
                         "'");
        const std::string sha = gitSha();
        bool first = true;
        os << "[";
        for (const TimingRow &row : rows) {
            os << (first ? "" : ",") << "\n  "
               << dumpJson(encodeTimingRecord("sim_plan", row.stage,
                                              row.seconds, 1, sha));
            first = false;
        }
        os << "\n]\n";
    }
    return 0;
}
