/**
 * @file
 * Timing model of a non-blocking set-associative cache.
 *
 * The model is a stateful latency oracle: each access() returns the
 * completion cycle, after accounting for port bandwidth, tag lookup,
 * MSHR allocation/merging and the next level's latency. Writebacks are
 * counted (for energy) but modeled off the critical path, as in the
 * paper's aggressive non-blocking interface.
 *
 * The access path is built for speed (DESIGN.md §10): a level bumps
 * its counters by index in the StatSet's counter block, the hit
 * path is a short inlineable function that falls through to an
 * out-of-line miss path, and the level is a template over its concrete
 * next-level type so the fixed L1→LLC→DRAM chain compiles to direct
 * (devirtualized) calls. `Cache` — an alias for `CacheT<MemLevel>` —
 * keeps the virtual seam for tests and ad-hoc stacks.
 */

#ifndef NACHOS_MEM_CACHE_HH
#define NACHOS_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/bandwidth.hh"
#include "support/stats.hh"

namespace nachos {

/** Timing sink under a cache (next level or DRAM). */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Issue a request at `cycle`; returns completion cycle.
     * @param addr   byte address
     * @param write  true for writes/writebacks
     * @param cycle  requested issue cycle
     */
    virtual uint64_t access(uint64_t addr, bool write, uint64_t cycle)
        = 0;
};

/** Configuration of one cache level. */
struct CacheConfig
{
    uint64_t sizeBytes = 64 * 1024;
    uint32_t assoc = 4;
    uint32_t lineBytes = 64;
    uint32_t hitLatency = 3;
    uint32_t numMshrs = 16;
    /** Requests accepted per cycle. */
    uint32_t ports = 2;
    /** Counter prefix: "l1", "llc" or "cache", the names in the
     *  StatSet's counter block (see cacheLevelStat). */
    const char *name = "cache";
    /** Fetch line L+1 on a demand miss to line L (off the critical
     * path; counted as <name>.prefetches). */
    bool nextLinePrefetch = false;

    /** Field-wise equality (names by content) — pooled-reuse check. */
    bool sameAs(const CacheConfig &o) const;
};

/**
 * The first counter (`<name>.hits`) of the cache level `name` in the
 * StatSet counter block; fatal for a name the block does not hold.
 */
Stat cacheLevelStat(const char *name);

/** Fixed-latency DRAM with a simple per-request issue bandwidth. */
class MainMemory final : public MemLevel
{
  public:
    explicit MainMemory(uint32_t latency = 200,
                        uint32_t requests_per_cycle = 4)
        : latency_(latency), bw_(requests_per_cycle)
    {}

    uint64_t
    access(uint64_t addr, bool write, uint64_t cycle) override
    {
        (void)addr;
        (void)write;
        ++accesses_;
        return bw_.admit(cycle) + latency_;
    }

    uint64_t totalAccesses() const { return accesses_; }

    void
    reset()
    {
        bw_.reset();
        accesses_ = 0;
    }

  private:
    uint32_t latency_;
    BandwidthRegulator bw_;
    uint64_t accesses_ = 0;
};

/**
 * One set-associative, write-back, write-allocate cache level,
 * parameterized on the concrete type of the level below it so that
 * `next_.access(...)` is a direct call (both MainMemory and CacheT are
 * `final`, so the compiler devirtualizes even through the reference).
 *
 * In-flight line fills are tracked in the ways themselves (`fillDone`)
 * instead of a side hash map: a fill is installed into its way within
 * the same access() that issues it, so a line with a pending fill is
 * always resident, and eviction of the way retires the pending entry
 * with it. `fillDone == 0` means "no fill in flight" — benign, since a
 * pending cycle of 0 can never exceed the (admitted) request cycle and
 * therefore behaves exactly like an already-expired fill.
 */
template <class Next>
class CacheT final : public MemLevel
{
  public:
    CacheT(const CacheConfig &cfg, Next &next, StatSet &stats)
        : cfg_(cfg), next_(next), level_(cacheLevelStat(cfg.name)),
          bw_(cfg.ports)
    {
        NACHOS_ASSERT(cfg_.lineBytes > 0 && cfg_.assoc > 0,
                      "bad cache geometry");
        NACHOS_ASSERT(cfg_.numMshrs > 0, "cache needs at least 1 MSHR");
        numSets_ = static_cast<uint32_t>(cfg_.sizeBytes /
                                         (cfg_.lineBytes * cfg_.assoc));
        NACHOS_ASSERT(numSets_ > 0, "cache too small for its geometry");
        ways_.assign(static_cast<size_t>(numSets_) * cfg_.assoc, Way{});
        mshrFreeAt_.assign(cfg_.numMshrs, 0);
        rebindStats(stats);
    }

    /** Hit fast path; misses fall through to accessMiss(). */
    uint64_t
    access(uint64_t addr, bool write, uint64_t cycle) override
    {
        cycle = bw_.admit(cycle);
        ++useClock_;
        const uint64_t line = lineOf(addr);
        count(write ? CacheStat::Writes : CacheStat::Reads);

        if (Way *way = findWay(line)) {
            way->lastUse = useClock_;
            way->dirty |= write;
            // A fill may still be in flight for this (installed)
            // line: the access is a miss that merges into the pending
            // MSHR.
            if (way->fillDone != 0) {
                if (way->fillDone > cycle) {
                    count(CacheStat::Misses);
                    count(CacheStat::MshrMerges);
                    return std::max(way->fillDone,
                                    cycle + cfg_.hitLatency);
                }
                way->fillDone = 0;
            }
            count(CacheStat::Hits);
            return cycle + cfg_.hitLatency;
        }
        return accessMiss(line, write, cycle);
    }

    /** Would this address hit right now? (no state change) */
    bool probe(uint64_t addr) const
    {
        return findWay(lineOf(addr)) != nullptr;
    }

    /**
     * Drop all lines and in-flight state (between experiments). An
     * epoch bump invalidates every way in O(1); only the MSHR array
     * (numMshrs entries) and the regulator are actually rewritten.
     */
    void
    reset()
    {
        if (++epoch_ == 0) {
            // Epoch wrapped (2^32 resets): hard-clear so stale ways
            // cannot alias the reused epoch value.
            std::fill(ways_.begin(), ways_.end(), Way{});
            epoch_ = 1;
        }
        std::fill(mshrFreeAt_.begin(), mshrFreeAt_.end(), 0);
        bw_.reset();
        useClock_ = 0;
    }

    /**
     * Count into `stats` from now on, declaring the level's eight
     * counters as construction does. Lets a pooled cache serve a fresh
     * run's StatSet without rebuilding its multi-megabyte way array.
     */
    void
    rebindStats(StatSet &stats)
    {
        stats_ = &stats;
        for (uint8_t k = 0; k < static_cast<uint8_t>(CacheStat::Count);
             ++k)
            stats.declare(cacheStat(level_, static_cast<CacheStat>(k)));
    }

    const CacheConfig &config() const { return cfg_; }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        /** Data-ready cycle of an in-flight fill; 0 = none. */
        uint64_t fillDone = 0;
        /** Way is valid iff epoch == the cache's current epoch_. */
        uint32_t epoch = 0;
        bool dirty = false;
    };

    CacheConfig cfg_;
    Next &next_;
    /** The run's counters, and this level's first one in the block. */
    StatSet *stats_ = nullptr;
    Stat level_;
    std::vector<Way> ways_; // sets * assoc, row-major
    uint32_t numSets_ = 0;
    uint32_t epoch_ = 1;
    /** MSHR occupancy: per-entry free-at cycle. */
    std::vector<uint64_t> mshrFreeAt_;
    BandwidthRegulator bw_;
    uint64_t useClock_ = 0;

    void count(CacheStat k) { stats_->add(cacheStat(level_, k)); }

    uint64_t lineOf(uint64_t addr) const { return addr / cfg_.lineBytes; }
    uint32_t setOf(uint64_t line) const
    {
        return static_cast<uint32_t>(line % numSets_);
    }

    Way *
    findWay(uint64_t line)
    {
        Way *set = &ways_[static_cast<size_t>(setOf(line)) * cfg_.assoc];
        for (uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (set[w].epoch == epoch_ && set[w].tag == line)
                return set + w;
        }
        return nullptr;
    }

    const Way *
    findWay(uint64_t line) const
    {
        return const_cast<CacheT *>(this)->findWay(line);
    }

    Way &
    victimWay(uint64_t line)
    {
        Way *set = &ways_[static_cast<size_t>(setOf(line)) * cfg_.assoc];
        Way *victim = nullptr;
        for (uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (set[w].epoch != epoch_)
                return set[w];
            if (victim == nullptr || set[w].lastUse < victim->lastUse)
                victim = set + w;
        }
        return *victim;
    }

    void
    install(Way &way, uint64_t line, bool dirty, uint64_t fill_done)
    {
        way.tag = line;
        way.lastUse = useClock_;
        way.fillDone = fill_done;
        way.epoch = epoch_;
        way.dirty = dirty;
    }

    uint64_t accessMiss(uint64_t line, bool write, uint64_t cycle);
};

template <class Next>
uint64_t
CacheT<Next>::accessMiss(uint64_t line, bool write, uint64_t cycle)
{
    count(CacheStat::Misses);

    // Allocate an MSHR: take the earliest-free entry; if none is free
    // at `cycle`, the request stalls until one is.
    auto earliest =
        std::min_element(mshrFreeAt_.begin(), mshrFreeAt_.end());
    const uint64_t issue = std::max(cycle, *earliest);
    if (*earliest > cycle)
        count(CacheStat::MshrStalls);

    const uint64_t fill_done =
        next_.access(line * cfg_.lineBytes, false,
                     issue + cfg_.hitLatency);
    *earliest = fill_done;

    // Optional next-line prefetch: issued at fill time, off the
    // demand path, skipped when the next line is resident (which, per
    // the class invariant, also covers "fill pending").
    if (cfg_.nextLinePrefetch) {
        const uint64_t next_line = line + 1;
        if (findWay(next_line) == nullptr) {
            count(CacheStat::Prefetches);
            const uint64_t pf_done = next_.access(
                next_line * cfg_.lineBytes, false, fill_done);
            Way &pf_victim = victimWay(next_line);
            if (pf_victim.epoch == epoch_ && pf_victim.dirty) {
                count(CacheStat::Writebacks);
                next_.access(pf_victim.tag * cfg_.lineBytes, true,
                             pf_done);
            }
            install(pf_victim, next_line, false, pf_done);
        }
    }

    // Install the line now; timing-wise it becomes usable at
    // fill_done (enforced for merging requests via the way's
    // fillDone).
    Way &victim = victimWay(line);
    if (victim.epoch == epoch_ && victim.dirty) {
        count(CacheStat::Writebacks);
        // Writeback is off the critical path: issue it at fill time
        // without delaying the demand request.
        next_.access(victim.tag * cfg_.lineBytes, true, fill_done);
    }
    install(victim, line, write, fill_done);

    return fill_done;
}

/** The fixed hierarchy chain, devirtualized bottom-up. */
using LlcCache = CacheT<MainMemory>;
using L1Cache = CacheT<LlcCache>;

/** Virtual-seam cache for tests and ad-hoc level stacks. */
using Cache = CacheT<MemLevel>;

// The three chain instantiations live in cache.cc; this keeps the
// miss path out of line at call sites in other translation units.
extern template class CacheT<MemLevel>;
extern template class CacheT<MainMemory>;
extern template class CacheT<CacheT<MainMemory>>;

} // namespace nachos

#endif // NACHOS_MEM_CACHE_HH
