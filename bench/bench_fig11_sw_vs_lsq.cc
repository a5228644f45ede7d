/**
 * @file
 * Figure 11: NACHOS-SW performance relative to OPT-LSQ. Positive bars
 * are slowdowns, negative bars speedups.
 *
 * Paper shape: 21 of 27 workloads within ~4% of OPT-LSQ; ~7 faster
 * (8-62%, via better load-to-use latency); 6 slower by 18-100%
 * (bzip2, art, fft, povray, histogram, soplex — serialized MAYs).
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
    printHeader(std::cout, "Figure 11",
                "NACHOS-SW vs OPT-LSQ (positive = %slowdown)");

    RunRequest req;
    req.runNachos = false;
    SuiteRun run =
        runSuite(benchmarkSuite(), req, suiteThreads(argc, argv));

    std::vector<BarEntry> series;
    int within = 0, faster = 0, slower = 0;
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
        const BenchmarkInfo &info = benchmarkSuite()[i];
        const RunOutcome &out = run.outcomes[i];
        const double delta =
            pctDelta(static_cast<double>(out.lsq->cycles),
                     static_cast<double>(out.sw->cycles));
        series.push_back({info.shortName, delta, ""});
        if (delta > 4)
            ++slower;
        else if (delta < -4)
            ++faster;
        else
            ++within;
    }
    printBars(std::cout, series, "%", 150);
    std::cout << "\nSummary: " << within << " within 4%, " << faster
              << " faster, " << slower << " slower (>4%)\n"
              << "Paper:   21 within 4%; ~7 faster 8-62%; 6 slower "
                 "18-100% (bzip2, art, fft, povray, histogram, "
                 "soplex)\n";
    printSuiteTiming(std::cerr, run);
    return 0;
}
