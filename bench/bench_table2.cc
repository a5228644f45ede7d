/**
 * @file
 * Table II: acceleration-region characteristics. Prints, per workload,
 * the paper's descriptor values next to the values measured on the
 * synthesized region (static counts from the IR, MLP from an OPT-LSQ
 * simulation, dependence counts from the Stage-1 alias matrix).
 */

#include <iostream>

#include "harness/report.hh"
#include "harness/suite_runner.hh"
#include "support/logging.hh"
#include "support/table.hh"

using namespace nachos;

int
main(int argc, char **argv)
{
    setQuiet(true);
    printHeader(std::cout, "Table II",
                "Acceleration region characteristics "
                "(paper value / synthesized-measured value)");

    RunRequest req;
    req.runSw = false;
    req.runNachos = false;
    req.invocationsOverride = 24;
    SuiteRun run =
        runSuite(benchmarkSuite(), req, suiteThreads(argc, argv));

    TextTable table;
    table.header({"app", "suite", "#OPs", "#MEM", "MLP", "St-St",
                  "St-Ld", "Ld-St", "%LOC"});

    for (size_t w = 0; w < run.outcomes.size(); ++w) {
        const BenchmarkInfo &info = benchmarkSuite()[w];
        const RunOutcome &out = run.outcomes[w];

        // Dynamic MUST-dependence counts by type from the final matrix.
        uint64_t st_st = 0, st_ld = 0, ld_st = 0;
        const AliasMatrix &m = out.analysis.matrix;
        for (uint32_t i = 0; i < m.numMemOps(); ++i) {
            for (uint32_t j = i + 1; j < m.numMemOps(); ++j) {
                if (m.label(i, j) != AliasLabel::Must)
                    continue;
                const bool si = out.region.op(m.opOf(i)).isStore();
                const bool sj = out.region.op(m.opOf(j)).isStore();
                if (si && sj)
                    ++st_st;
                else if (si)
                    ++st_ld;
                else if (sj)
                    ++ld_st;
            }
        }
        // C5 is defined relative to disambiguated memory ops; for
        // compute-only regions (blackscholes, ferret) the ratio is
        // undefined, so print the raw promoted-op count instead.
        const double promoted =
            static_cast<double>(out.region.numScratchpadOps());
        const bool loc_defined = out.region.numMemOps() > 0;
        const double loc_pct =
            !loc_defined ? 0
                         : 100.0 * promoted /
                               (promoted +
                                static_cast<double>(
                                    out.region.numMemOps()));

        auto pair = [](uint64_t paper, uint64_t measured) {
            return std::to_string(paper) + "/" +
                   std::to_string(measured);
        };
        table.row({info.shortName, suiteName(info.suite),
                   pair(info.ops, out.region.numOps()),
                   pair(info.memOps, out.region.numMemOps()),
                   pair(info.mlp, out.lsq->maxMlp),
                   pair(info.stStDeps, st_st),
                   pair(info.stLdDeps, st_ld),
                   pair(info.ldStDeps, ld_st),
                   fmtDouble(info.localPct, 1) + "/" +
                       (loc_defined
                            ? fmtDouble(loc_pct, 1)
                            : "(" + std::to_string(
                                        out.region
                                            .numScratchpadOps()) +
                                  " ops)")});
    }
    table.print(std::cout);
    std::cout << "\nMLP is measured as the max outstanding memory "
                 "accesses under OPT-LSQ;\ndependence counts are MUST "
                 "pairs in the final alias matrix.\n";
    printSuiteTiming(std::cerr, run);
    return 0;
}
