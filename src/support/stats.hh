/**
 * @file
 * Lightweight named-statistics registry used by the simulator, the
 * memory hierarchy, and the energy model, mirroring gem5's stats
 * package at a small scale. The simulator's own counters live in a
 * fixed block indexed by the Stat enum, so binding and bumping them
 * costs no name lookup and no allocation; any other name (the
 * daemon's metrics, suite timing) lives in a map created on first use.
 */

#ifndef NACHOS_SUPPORT_STATS_HH
#define NACHOS_SUPPORT_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nachos {

class JsonValue;

/** A single scalar event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/**
 * Streaming latency distribution over log-linear (HDR-style) buckets:
 * values below 2 * kSubBuckets each have a bucket of their own, and
 * every octave [2^e, 2^(e+1)) above that is split into kSubBuckets
 * equal sub-buckets. Constant memory, O(1) sampling, and a percentile
 * read (its bucket's upper bound) that overstates the true sample by
 * less than 1/kSubBuckets (6.25%) of it, so the daemon's p50/p95/p99
 * resolve a tail move of a few percent, not just an octave.
 */
class LatencyHistogram
{
  public:
    static constexpr unsigned kSubBits = 4;
    static constexpr size_t kSubBuckets = size_t{1} << kSubBits;
    /** Enough for every uint64_t. */
    static constexpr size_t kBuckets = (65 - kSubBits) * kSubBuckets;

    /** Bucket holding `value`. */
    static size_t bucketOf(uint64_t value);
    /** Largest value bucket `idx` holds. */
    static uint64_t bucketUpperBound(size_t idx);

    void sample(uint64_t value, uint64_t weight = 1);

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    /** Smallest / largest sampled value (0 when empty). */
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double mean() const;

    /**
     * Value at percentile p (0 < p <= 100): the upper bound of the
     * bucket holding the rank-ceil(p/100*count) sample, clamped to the
     * observed min/max. 0 when empty.
     */
    uint64_t percentile(double p) const;

    uint64_t p50() const { return percentile(50); }
    uint64_t p95() const { return percentile(95); }
    uint64_t p99() const { return percentile(99); }

    uint64_t bucket(size_t idx) const;

    /**
     * Fold another histogram's samples into this one (buckets add,
     * min/max widen) — how the daemon combines per-shard latency
     * distributions into one metrics snapshot without sharing a lock
     * on the sampling path.
     */
    void merge(const LatencyHistogram &other);

    void reset();

    /** {"count":..,"sum":..,"min":..,"max":..,"mean":..,
     *  "p50":..,"p95":..,"p99":..} */
    JsonValue jsonSnapshot() const;

  private:
    uint64_t buckets_[kBuckets] = {};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = UINT64_MAX;
    uint64_t max_ = 0;
};

/**
 * The simulator's counters, one per name in StatSet's name table, in
 * name order: "cache.hits" is CacheHits, "lsq.camLoads" LsqCamLoads.
 * Each cache level's eight counters are contiguous and in the same
 * order (see CacheStat), so a cache indexes them from its first.
 */
enum class Stat : uint8_t
{
    // A stand-alone cache under CacheConfig's default name.
    CacheHits, CacheMisses, CacheMshrMerges, CacheMshrStalls,
    CachePrefetches, CacheReads, CacheWritebacks, CacheWrites,
    FuFpOps, FuIntOps,
    L1Hits, L1Misses, L1MshrMerges, L1MshrStalls,
    L1Prefetches, L1Reads, L1Writebacks, L1Writes,
    LlcHits, LlcMisses, LlcMshrMerges, LlcMshrStalls,
    LlcPrefetches, LlcReads, LlcWritebacks, LlcWrites,
    LsqAllocs, LsqBloomHits, LsqBloomMisses, LsqBloomProbes,
    LsqCamLoads, LsqCamStores, LsqForwards,
    MdeForwards, MdeMayChecks, MdeOrderTokens,
    NachosChecksClear, NachosChecksConflict, NachosRuntimeForwards,
    NetHops, NetTransfers,
    ScratchpadReads, ScratchpadWrites,
    Count
};

/** A cache level's counters, as offsets from its first Stat. */
enum class CacheStat : uint8_t
{
    Hits, Misses, MshrMerges, MshrStalls, Prefetches, Reads, Writebacks,
    Writes, Count
};

/** `level`'s (e.g. Stat::L1Hits) counter `which`. */
constexpr Stat
cacheStat(Stat level, CacheStat which)
{
    return static_cast<Stat>(static_cast<uint8_t>(level) +
                             static_cast<uint8_t>(which));
}

/**
 * A registry of named counters and latency histograms. Names are
 * hierarchical by convention ("l1.hits", "lsq.camSearches"). The
 * names of the Stat enum live in a fixed block: a component declares
 * its counters when it binds to a run, which makes them appear in
 * dump() exactly as a named counter does once created, and then bumps
 * them by index. Every other name is created on first use so call
 * sites stay terse. The block is invisible to readers: get(), dump(),
 * merge() and jsonSnapshot() treat a declared block counter like a
 * map counter of the same name.
 */
class StatSet
{
  public:
    static constexpr size_t kNumStats = static_cast<size_t>(Stat::Count);

    /** The name of a block counter ("l1.hits"). */
    static std::string_view name(Stat s);

    /** Make `s` present (from now on listed, at 0 until bumped). */
    void
    declare(Stat s)
    {
        present_ |= uint64_t{1} << static_cast<size_t>(s);
    }

    /** Bump a block counter; it must have been declared. */
    void
    add(Stat s, uint64_t n = 1)
    {
        block_[static_cast<size_t>(s)].inc(n);
    }

    /** A block counter's value; zero if it was never bumped. */
    uint64_t
    get(Stat s) const
    {
        return block_[static_cast<size_t>(s)].value();
    }

    /**
     * Get (creating if needed) the counter with the given name. A
     * block name declares and returns its block counter.
     */
    Counter &counter(const std::string &name);

    /** Read a counter's value; zero if it was never touched. */
    uint64_t get(const std::string &name) const;

    /** Get (creating if needed) the histogram with the given name. */
    LatencyHistogram &histogram(const std::string &name);

    /**
     * Fold another set into this one: counters add, histograms merge,
     * names absent here are created. Used to combine per-shard stats.
     */
    void merge(const StatSet &other);

    /** Reset every counter and histogram to zero. */
    void resetAll();

    /** Snapshot of all (name, value) pairs in name order. */
    std::vector<std::pair<std::string, uint64_t>> dump() const;

    const std::map<std::string, LatencyHistogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * JSON snapshot {"counters":{name:value,...},
     * "histograms":{name:{count,sum,min,max,mean,p50,p95,p99},...}},
     * both in name order — the payload of the daemon's `metrics`
     * response.
     */
    JsonValue jsonSnapshot() const;

  private:
    static_assert(kNumStats <= 64, "one presence bit per block counter");

    bool
    present(size_t idx) const
    {
        return (present_ >> idx) & 1;
    }

    /**
     * Call f(name, value) for every present counter, block and map
     * merged in name order.
     */
    template <typename F> void forEachCounter(F &&f) const;

    std::array<Counter, kNumStats> block_{};
    /** Bit i set iff block_[i] is declared. */
    uint64_t present_ = 0;
    /** Counters outside the block. */
    std::map<std::string, Counter> counters_;
    std::map<std::string, LatencyHistogram> histograms_;
};

/**
 * Streaming histogram with fixed integral buckets, used for fan-in and
 * MLP distributions.
 */
class Histogram
{
  public:
    /** @param max_bucket values >= max_bucket land in the overflow bin */
    explicit Histogram(uint64_t max_bucket = 64);

    void sample(uint64_t value, uint64_t weight = 1);

    uint64_t total() const { return total_; }
    uint64_t bucket(uint64_t idx) const;
    uint64_t overflow() const { return overflow_; }
    uint64_t maxBucket() const { return buckets_.size(); }

    /** Mean of all samples. */
    double mean() const;

    /** Fraction of samples with value <= v. */
    double cumulativeAt(uint64_t v) const;

  private:
    std::vector<uint64_t> buckets_;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
    uint64_t weightedSum_ = 0;
};

} // namespace nachos

#endif // NACHOS_SUPPORT_STATS_HH
