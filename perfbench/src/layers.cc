#include <cstdio>

#include "workloads.hh"

namespace perfbench {

namespace {

Tracer::Agg
get(const std::map<std::string, Tracer::Agg> &m, const std::string &name)
{
    auto it = m.find(name);
    return it == m.end() ? Tracer::Agg{} : it->second;
}

constexpr nachos::BackendKind kBackends[] = {
    nachos::BackendKind::OptLsq, nachos::BackendKind::NachosSw,
    nachos::BackendKind::Nachos};

} // namespace

const char *
simSpanName(nachos::BackendKind kind)
{
    switch (kind) {
      case nachos::BackendKind::OptLsq: return "cgra.sim.lsq";
      case nachos::BackendKind::NachosSw: return "cgra.sim.sw";
      case nachos::BackendKind::Nachos: return "cgra.sim.nachos";
    }
    return "cgra.sim";
}

void
reportLayerMetrics(Report &rep,
                   const std::map<std::string, Tracer::Agg> &timed,
                   const std::map<std::string, Tracer::Agg> &counted,
                   double dynOps)
{
    rep.metric("workloads.synth_us", get(timed, "workloads.synth").meanUs(),
               "us");
    rep.metric("analysis.pipeline_us",
               get(timed, "analysis.pipeline").meanUs(), "us");
    rep.metric("analysis.allocs",
               get(counted, "analysis.pipeline").meanAllocs(), "count");
    rep.metric("mde.insert_us", get(timed, "mde.insert").meanUs(), "us");
    rep.metric("testing.gen_us", get(timed, "testing.gen").meanUs(), "us");
    rep.metric("testing.oracle_us", get(timed, "testing.oracle").meanUs(),
               "us");
    rep.metric("testing.check_us", get(timed, "testing.check").meanUs(),
               "us");

    double simUs = 0;
    uint64_t simAllocs = 0, simCalls = 0;
    for (nachos::BackendKind kind : kBackends) {
        const Tracer::Agg t = get(timed, simSpanName(kind));
        const Tracer::Agg c = get(counted, simSpanName(kind));
        rep.metric(std::string("cgra.sim_us.") + backendLabel(kind),
                   t.meanUs(), "us");
        simUs += t.totalUs;
        simAllocs += c.selfAllocs;
        simCalls += c.calls;
    }
    rep.metric("cgra.host_ns_per_dyn_op",
               dynOps > 0 ? simUs * 1e3 / dynOps : 0, "ns");
    rep.metric("cgra.allocs_per_sim",
               simCalls ? static_cast<double>(simAllocs) / simCalls : 0,
               "count");

    // Human-readable self-time breakdown of every span name.
    double total = 0;
    for (const auto &[name, a] : timed)
        total += a.selfUs;
    for (const auto &[name, a] : timed) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "span %-20s calls %8llu  mean %10.2f us  self "
                      "%5.1f%%  allocs/call %10.1f",
                      name.c_str(), static_cast<unsigned long long>(a.calls),
                      a.meanUs(), total > 0 ? 100.0 * a.selfUs / total : 0,
                      get(counted, name).meanAllocs());
        rep.line(buf);
    }
    if (!allocCountingEnabled())
        rep.line("WARNING: allocation counting is off in this binary");
}

void
reportServiceMetrics(Report &rep, const ServiceDeltas &d)
{
    rep.metric("service.cache_hit_ratio", d.cacheHitRatio, "ratio");
    rep.metric("service.queue_wait_us.mean", d.queueWaitUsMean, "us");
    rep.metric("service.lanes_per_group", d.lanesPerGroup, "count");
    rep.metric("service.steals", d.steals, "count");
    rep.metric("service.rejected", d.rejected, "count");
    rep.metric("bench.gen_late_us.p99", d.genLateUsP99, "us");
}

void
reportSetup(Report &rep, const std::vector<double> &setupSeconds,
            bool asMetric)
{
    const double median = percentile(setupSeconds, 50);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-28s %12.4f s  (median of %zu:",
                  "setup_s", median, setupSeconds.size());
    std::string text = buf;
    for (double v : setupSeconds) {
        std::snprintf(buf, sizeof buf, " %.4f", v);
        text += buf;
    }
    rep.line(text + ")");
    if (asMetric)
        rep.metric("setup_s", median, "s");
}

} // namespace perfbench
