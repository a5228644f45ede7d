/**
 * @file
 * The benchmark's workloads. Each one sets up (repeatedly, reporting
 * the median as setup_s), measures for the requested time, checks
 * every output it produced, and fills the Report. With tracing on it
 * instead calls the layers one at a time on the same inputs, inside
 * spans, and reports the per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"
#include "trace.hh"

namespace perfbench {

void runSuiteWorkload(const Options &opts, Report &rep);
void runFuzzWorkload(const Options &opts, Report &rep);
void runServeWorkload(const Options &opts, Report &rep);

/**
 * Per-layer metrics from span aggregates, in one place so that every
 * workload emits the same names (0 where the workload never calls
 * that layer). `counted` aggregates only the deterministic span
 * window whose allocation counts repeat exactly.
 */
void reportLayerMetrics(Report &rep,
                        const std::map<std::string, Tracer::Agg> &timed,
                        const std::map<std::string, Tracer::Agg> &counted,
                        double dynOps);

/** The service.* per-layer metrics, 0 off the serve workload. */
struct ServiceDeltas
{
    double cacheHitRatio = 0;
    double queueWaitUsMean = 0;
    double lanesPerGroup = 0;
    double steals = 0;
    double rejected = 0;
    double genLateUsP99 = 0;
};
void reportServiceMetrics(Report &rep, const ServiceDeltas &d);

/** Median of the set-up repetitions; the setup_s metric if asked. */
void reportSetup(Report &rep, const std::vector<double> &setupSeconds,
                 bool asMetric);

/** Span names of the per-backend simulate() calls. */
const char *simSpanName(nachos::BackendKind kind);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
