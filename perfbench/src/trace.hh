/**
 * @file
 * Span recorder for the traced run. Spans are recorded from the
 * benchmark's own code around each public call into a layer (the
 * program itself carries no spans yet), kept in a preallocated buffer
 * so recording allocates nothing, and written out as a Chrome
 * trace-event file when the run ends.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench {

/**
 * Heap allocations made by the calling thread so far. The traced
 * binary links support/alloc_hook and returns its count; the untraced
 * binary returns 0 and never links the counting operator new.
 */
uint64_t allocCount();

/** True in the binary that counts allocations. */
bool allocCountingEnabled();

struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;
    uint32_t pass = 0;
    uint64_t id = 0;     ///< seed or request id
    uint64_t allocs = 0; ///< inclusive of children
};

class Tracer
{
  public:
    explicit Tracer(size_t capacity);

    /** No room for another pass of spans: stop the traced loop. */
    bool nearlyFull(size_t headroom) const
    {
        return spans_.size() + headroom > spans_.capacity();
    }

    void setPass(uint32_t pass) { pass_ = pass; }

    /** RAII span around one call. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, uint64_t id = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int32_t index_;
    };

    /** Add a finished root span timed elsewhere (another thread). */
    void record(const char *name, Clock::time_point start,
                Clock::time_point end, uint64_t id);

    /** Aggregate over the spans `keep` accepts, by span name. */
    struct Agg
    {
        uint64_t calls = 0;
        double totalUs = 0;
        double selfUs = 0;
        uint64_t selfAllocs = 0;

        double meanUs() const { return calls ? totalUs / calls : 0; }
        double meanAllocs() const
        {
            return calls ? static_cast<double>(selfAllocs) / calls : 0;
        }
    };
    std::map<std::string, Agg>
    aggregate(const std::function<bool(const Span &)> &keep) const;

    /**
     * Share (%) of the root spans' time that no leaf span covers: the
     * self time of every span that has children, over root time.
     */
    double unattributedPct() const;

    /** Duration (ms) of every root span named `name`. */
    std::vector<double> rootDurationsMs(const char *name) const;

    /** Write the spans as Chrome trace-event JSON; false on error. */
    bool write(const std::string &path) const;

    size_t size() const { return spans_.size(); }

  private:
    int64_t nowNs() const;
    std::vector<double> childNs() const; ///< per span: children's time
    std::vector<uint64_t> childAllocs() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    int32_t current_ = -1;
    uint32_t pass_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
