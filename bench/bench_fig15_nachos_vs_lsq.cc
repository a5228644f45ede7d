/**
 * @file
 * Figure 15: NACHOS performance vs OPT-LSQ (positive = slowdown,
 * negative = speedup), with NACHOS-SW as a marker per workload.
 *
 * Paper shape to reproduce: 19 workloads within ~2.5% of OPT-LSQ;
 * ~6 workloads speed up 6-70% (load-to-use latency on cache hits);
 * bzip2 and sar-pfa slow down ~8% from MAY fan-in contention at the
 * comparator stations.
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
    printHeader(std::cout, "Figure 15",
                "NACHOS vs OPT-LSQ performance (negative = NACHOS "
                "faster); marker = NACHOS-SW");

    RunRequest req;
    SuiteRun run =
        runSuite(benchmarkSuite(), req, suiteThreads(argc, argv));

    std::vector<BarEntry> series;
    int close = 0, speedup = 0, slowdown = 0;
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
        const BenchmarkInfo &info = benchmarkSuite()[i];
        const RunOutcome &out = run.outcomes[i];
        const double lsq =
            static_cast<double>(out.lsq->cycles);
        const double hw_delta =
            pctDelta(lsq, static_cast<double>(out.nachos->cycles));
        const double sw_delta =
            pctDelta(lsq, static_cast<double>(out.sw->cycles));
        series.push_back({info.shortName, hw_delta,
                          "sw=" + fmtDouble(sw_delta, 1) + "%"});
        if (hw_delta < -2.5)
            ++speedup;
        else if (hw_delta > 2.5)
            ++slowdown;
        else
            ++close;
    }
    printBars(std::cout, series, "%", 120);
    std::cout << "\nSummary: " << close << " within 2.5% of OPT-LSQ, "
              << speedup << " faster (>2.5%), " << slowdown
              << " slower (>2.5%)\n";
    std::cout << "Paper:   19 within 2.5%, 6 faster by 6-70%, "
                 "bzip2/sar-pfa ~8% slower\n";
    printSuiteTiming(std::cerr, run);
    return 0;
}
