#include "trace.hh"

#include <fstream>

namespace perfbench {

Tracer::Tracer(size_t capacity) : origin_(Clock::now())
{
    spans_.reserve(capacity);
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

Tracer::Scope::Scope(Tracer &t, const char *name, uint64_t id)
    : t_(t), index_(-1)
{
    if (t_.spans_.size() == t_.spans_.capacity())
        return; // full: never reallocate mid-run
    Span s;
    s.name = name;
    s.parent = t_.current_;
    s.pass = t_.pass_;
    s.id = id;
    s.allocs = allocCount();
    index_ = static_cast<int32_t>(t_.spans_.size());
    t_.current_ = index_;
    s.startNs = t_.nowNs();
    t_.spans_.push_back(s);
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &s = t_.spans_[index_];
    s.endNs = t_.nowNs();
    s.allocs = allocCount() - s.allocs;
    t_.current_ = s.parent;
}

void
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, uint64_t id)
{
    if (spans_.size() == spans_.capacity())
        return;
    Span s;
    s.name = name;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start - origin_)
                    .count();
    s.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  end - origin_)
                  .count();
    s.pass = pass_;
    s.id = id;
    spans_.push_back(s);
}

std::vector<double>
Tracer::childNs() const
{
    std::vector<double> out(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            out[s.parent] += s.endNs - s.startNs;
    return out;
}

std::vector<uint64_t>
Tracer::childAllocs() const
{
    std::vector<uint64_t> out(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            out[s.parent] += s.allocs;
    return out;
}

std::map<std::string, Tracer::Agg>
Tracer::aggregate(const std::function<bool(const Span &)> &keep) const
{
    const std::vector<double> child = childNs();
    const std::vector<uint64_t> childA = childAllocs();
    std::map<std::string, Agg> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (!keep(s))
            continue;
        Agg &a = out[s.name];
        const double dur = static_cast<double>(s.endNs - s.startNs);
        ++a.calls;
        a.totalUs += dur / 1e3;
        a.selfUs += (dur - child[i]) / 1e3;
        a.selfAllocs += s.allocs - childA[i];
    }
    return out;
}

double
Tracer::unattributedPct() const
{
    const std::vector<double> child = childNs();
    double root = 0, uncovered = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = static_cast<double>(s.endNs - s.startNs);
        if (s.parent < 0)
            root += dur;
        if (child[i] > 0)
            uncovered += dur - child[i];
    }
    return root > 0 ? 100.0 * uncovered / root : 0;
}

std::vector<double>
Tracer::rootDurationsMs(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.parent < 0 && std::string_view(s.name) == name)
            out.push_back((s.endNs - s.startNs) / 1e6);
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << s.startNs / 1e3 << ",\"dur\":" << (s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
           << ",\"pass\":" << s.pass << ",\"id\":" << s.id
           << ",\"allocs\":" << s.allocs << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
