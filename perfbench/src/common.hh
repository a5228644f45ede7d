/**
 * @file
 * Shared pieces of the repository benchmark: command-line options,
 * exact percentiles over raw samples, the result report (human lines
 * plus the one-line JSON result), the model fingerprint and the
 * modelled-count aggregation over SimResults.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cgra/simulator.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
msSince(Clock::time_point t)
{
    return secondsBetween(t, Clock::now()) * 1e3;
}

inline Clock::time_point
after(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/** Set-up repetitions of every workload; the median is setup_s. */
constexpr unsigned kSetupRepeats = 15;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** nachosd binary (serve workload only). */
    std::string nachosd;
    /** Where the traced run writes its spans (Chrome trace JSON). */
    std::string traceOut;
    /** Corrupt one expected output, to prove the checks can fail. */
    bool injectFault = false;
};

/** Nearest-rank percentile (0 < p <= 100) of raw samples. */
double percentile(std::vector<double> samples, double p);

/**
 * Collects the run's outcome: the metrics (printed in the final
 * JSON line), human-readable lines (printed before it) and every
 * failed output check.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** A human-readable line, printed before the result. */
    void line(const std::string &text);

    /**
     * A timing's exact percentile with its sample count: adds the
     * human line, warns when fewer than ten samples lie beyond `p`,
     * and returns the value.
     */
    double timing(const std::string &label, const std::vector<double> &v,
                  double p, const std::string &unit);

    void attempt(uint64_t n = 1) { attempted_ += n; }

    /** Record one failed operation (a wrong output counts). */
    void fail(const std::string &why);

    /** Time per comparable unit of work, for the tracing overhead. */
    void unitMs(double ms) { unitMs_ = ms; }

    /** Print the lines and the final JSON result; returns exit code. */
    int finish() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::string> lines_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    double unitMs_ = 0;
};

/** Peak resident set of this process, in MiB. */
double selfPeakRssMb();

/** Largest peak resident set of any waited-for child, in MiB. */
double childPeakRssMb();

/** FNV-1a style accumulation used by the model fingerprint. */
class Fingerprint
{
  public:
    void add(uint64_t v);
    void add(const nachos::SimResult &r);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/**
 * Modelled (simulated, not host) counts summed over SimResults. They
 * repeat exactly for a given seed; a simulator-only change must leave
 * them identical.
 */
struct ModelCounts
{
    uint64_t cycles[3] = {0, 0, 0}; ///< by BackendKind
    uint64_t netHops = 0;
    uint64_t l1Accesses = 0;
    uint64_t l1Misses = 0;
    uint64_t llcMisses = 0;
    uint64_t camSearches = 0;
    uint64_t bloomHits = 0;
    uint64_t bloomProbes = 0;
    uint64_t mayChecks = 0;
    uint64_t mayClear = 0;
    uint64_t orderTokens = 0;
    uint64_t forwards = 0;

    void add(nachos::BackendKind kind, const nachos::SimResult &r);

    /** Emit the per-layer modelled-count metrics. */
    void report(Report &rep) const;
};

/** Print the fingerprint with the not-validated statement. */
void reportFingerprint(Report &rep, const Fingerprint &fp,
                       uint64_t results);

/** Short backend label used in metric names: lsq, sw, nachos. */
const char *backendLabel(nachos::BackendKind kind);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
