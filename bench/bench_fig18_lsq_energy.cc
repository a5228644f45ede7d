/**
 * @file
 * Figure 18: OPT-LSQ dynamic-energy breakdown (COMPUTE / LSQ-BLOOM /
 * LSQ-CAM / L1) plus the bloom-filter hit-rate table.
 *
 * Paper shape: the optimized LSQ consumes ~27% of total energy
 * (including L1); nine benchmarks have perfect (0-hit) bloom
 * filtering; the high-hit bucket (20%+) contains the store-heavy
 * workloads (bodytrack, fft-2d, freqmine, sar-pfa-interp1,
 * histogram).
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
    printHeader(std::cout, "Figure 18",
                "OPT-LSQ dynamic energy breakdown + bloom hit rates");

    RunRequest req;
    req.runSw = false;
    req.runNachos = false;
    SuiteRun run =
        runSuite(benchmarkSuite(), req, suiteThreads(argc, argv));

    TextTable table;
    table.header({"app", "%COMPUTE", "%BLOOM", "%CAM", "%L1",
                  "%memops", "bloomHit%", "paper bucket"});
    double lsq_share_sum = 0;
    int zero_bloom = 0;
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
        const BenchmarkInfo &info = benchmarkSuite()[i];
        const RunOutcome &out = run.outcomes[i];
        const EnergyBreakdown &e = out.lsq->energy;
        lsq_share_sum += e.frac(e.lsq());

        const uint64_t probes =
            out.lsq->stats.get("lsq.bloomProbes");
        const uint64_t hits = out.lsq->stats.get("lsq.bloomHits") +
                              out.lsq->stats.get("lsq.camStores");
        const double hit_pct =
            probes == 0 ? 0
                        : 100.0 * static_cast<double>(hits) /
                              static_cast<double>(probes);
        zero_bloom += hits == 0 ? 1 : 0;

        const double mem_pct =
            out.region.numOps() == 0
                ? 0
                : 100.0 *
                      static_cast<double>(out.region.numMemOps()) /
                      static_cast<double>(out.region.numOps());
        table.row({info.shortName, fmtPct(e.frac(e.compute)),
                   fmtPct(e.frac(e.lsqBloom)), fmtPct(e.frac(e.lsqCam)),
                   fmtPct(e.frac(e.l1)), fmtDouble(mem_pct, 0),
                   fmtDouble(hit_pct, 1),
                   bloomClassName(info.bloomClass)});
    }
    table.print(std::cout);
    const double n = static_cast<double>(benchmarkSuite().size());
    std::cout << "\nMean LSQ share of total energy: "
              << fmtPct(lsq_share_sum / n)
              << " (paper: 27%); perfect-bloom workloads: "
              << zero_bloom << " (paper: 9)\n";
    printSuiteTiming(std::cerr, run);
    return 0;
}
