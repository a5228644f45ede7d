#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, n);
    return samples[rank - 1];
}

namespace {

/** Samples strictly above the nearest-rank percentile's rank. */
size_t
samplesBeyond(size_t n, double p)
{
    if (n == 0)
        return 0;
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(p / 100.0 * n)), 1, n);
    return n - rank;
}

std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
Report::line(const std::string &text)
{
    lines_.push_back(text);
}

double
Report::timing(const std::string &label, const std::vector<double> &v,
               double p, const std::string &unit)
{
    const double value = percentile(v, p);
    const size_t beyond = samplesBeyond(v.size(), p);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%-28s %12.4f %s  (n=%zu, %zu beyond, min %.4f, max %.4f)",
                  label.c_str(), value, unit.c_str(), v.size(), beyond,
                  percentile(v, 0), percentile(v, 100));
    line(buf);
    if (beyond < 10)
        line("WARNING: " + label + " has fewer than 10 samples beyond "
             "its percentile; run longer before quoting it");
    return value;
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    if (failed_ <= 20)
        line("CHECK FAILED: " + why);
}

int
Report::finish() const
{
    for (const std::string &l : lines_)
        std::cout << "# " << l << "\n";
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted_
              << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const auto &[name, vu] = metrics_[i];
        std::cout << (i ? ", " : "") << quoted(name)
                  << ": {\"value\": " << number(vu.first)
                  << ", \"unit\": " << quoted(vu.second) << "}";
    }
    std::cout << "}, \"unit_ms\": " << number(unitMs_) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

double
selfPeakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

double
childPeakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_CHILDREN, &ru);
    return ru.ru_maxrss / 1024.0;
}

void
Fingerprint::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ull;
    }
}

void
Fingerprint::add(const nachos::SimResult &r)
{
    add(r.cycles);
    add(r.loadValueDigest);
    for (const auto &[name, value] : r.stats.dump()) {
        for (char c : name)
            add(static_cast<uint8_t>(c));
        add(value);
    }
    add(r.memImage.size());
    for (const auto &[addr, byte] : r.memImage) {
        add(addr);
        add(byte);
    }
}

void
ModelCounts::add(nachos::BackendKind kind, const nachos::SimResult &r)
{
    const nachos::StatSet &s = r.stats;
    cycles[static_cast<int>(kind)] += r.cycles;
    netHops += s.get("net.hops");
    l1Accesses += s.get("l1.reads") + s.get("l1.writes");
    l1Misses += s.get("l1.misses");
    llcMisses += s.get("llc.misses");
    camSearches += s.get("lsq.camLoads") + s.get("lsq.camStores");
    bloomHits += s.get("lsq.bloomHits");
    bloomProbes += s.get("lsq.bloomProbes");
    mayChecks += s.get("nachos.checksClear") + s.get("nachos.checksConflict");
    mayClear += s.get("nachos.checksClear");
    orderTokens += s.get("mde.orderTokens");
    forwards += s.get("mde.forwards");
}

namespace {

double
ratio(uint64_t num, uint64_t den)
{
    return den ? static_cast<double>(num) / den : 0;
}

} // namespace

void
ModelCounts::report(Report &rep) const
{
    for (auto kind : {nachos::BackendKind::OptLsq,
                      nachos::BackendKind::NachosSw,
                      nachos::BackendKind::Nachos})
        rep.metric(std::string("cgra.cycles.") + backendLabel(kind),
                   cycles[static_cast<int>(kind)], "cycles");
    rep.metric("cgra.net_hops", netHops, "count");
    rep.metric("mem.l1_miss_ratio", ratio(l1Misses, l1Accesses), "ratio");
    rep.metric("mem.llc_misses", llcMisses, "count");
    rep.metric("lsq.cam_searches", camSearches, "count");
    rep.metric("lsq.bloom_hit_ratio", ratio(bloomHits, bloomProbes),
               "ratio");
    rep.metric("nachos.may_checks", mayChecks, "count");
    rep.metric("nachos.clear_ratio", ratio(mayClear, mayChecks), "ratio");
    rep.metric("mde.order_tokens", orderTokens, "count");
    rep.metric("mde.forwards", forwards, "count");
}

void
reportFingerprint(Report &rep, const Fingerprint &fp, uint64_t results)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "model fingerprint %016llx over %llu SimResults "
                  "(cycles, stats, digest, image)",
                  static_cast<unsigned long long>(fp.value()),
                  static_cast<unsigned long long>(results));
    rep.line(buf);
    rep.line("the model is not validated against hardware: the paper's "
             "figures are its only reference (EXPERIMENTS.md, ROADMAP "
             "item 5); no error figure is given here");
    // Low 32 bits: exact as a JSON number.
    rep.metric("model.fingerprint", static_cast<double>(fp.value() &
                                                        0xffffffffu),
               "hash");
}

const char *
backendLabel(nachos::BackendKind kind)
{
    switch (kind) {
      case nachos::BackendKind::OptLsq: return "lsq";
      case nachos::BackendKind::NachosSw: return "sw";
      case nachos::BackendKind::Nachos: return "nachos";
    }
    return "?";
}

} // namespace perfbench
