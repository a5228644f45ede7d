#include "support/stats.hh"

#include <algorithm>
#include <bit>

#include "support/json.hh"
#include "support/logging.hh"

namespace nachos {

size_t
LatencyHistogram::bucketOf(uint64_t value)
{
    // Below 2 * kSubBuckets the shift is 0 and the bucket is the
    // value; above, the top kSubBits + 1 bits pick the bucket.
    const unsigned width = std::bit_width(value);
    const unsigned shift = width > kSubBits + 1 ? width - kSubBits - 1 : 0;
    return shift * kSubBuckets + static_cast<size_t>(value >> shift);
}

uint64_t
LatencyHistogram::bucketUpperBound(size_t idx)
{
    const size_t shift = idx < 2 * kSubBuckets ? 0 : idx / kSubBuckets - 1;
    const uint64_t mantissa = idx - shift * kSubBuckets;
    return (mantissa << shift) + ((uint64_t{1} << shift) - 1);
}

void
LatencyHistogram::sample(uint64_t value, uint64_t weight)
{
    buckets_[bucketOf(value)] += weight;
    count_ += weight;
    sum_ += value * weight;
    if (value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
}

double
LatencyHistogram::mean() const
{
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
}

uint64_t
LatencyHistogram::percentile(double p) const
{
    NACHOS_ASSERT(p > 0 && p <= 100, "percentile out of range");
    if (count_ == 0)
        return 0;
    // Rank of the requested sample, 1-based.
    uint64_t rank = static_cast<uint64_t>(p / 100.0 *
                                          static_cast<double>(count_));
    if (static_cast<double>(rank) * 100.0 <
        p * static_cast<double>(count_))
        ++rank; // ceil
    if (rank < 1)
        rank = 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
        seen += buckets_[b];
        if (seen >= rank) {
            // Upper bound of bucket b, clamped to what was actually
            // observed.
            return std::min(std::max(bucketUpperBound(b), min()), max_);
        }
    }
    return max_;
}

uint64_t
LatencyHistogram::bucket(size_t idx) const
{
    NACHOS_ASSERT(idx < kBuckets, "histogram bucket out of range");
    return buckets_[idx];
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (size_t b = 0; b < kBuckets; ++b)
        buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ && other.min_ < min_)
        min_ = other.min_;
    if (other.max_ > max_)
        max_ = other.max_;
}

void
LatencyHistogram::reset()
{
    *this = LatencyHistogram();
}

JsonValue
LatencyHistogram::jsonSnapshot() const
{
    JsonValue v = JsonValue::makeObject();
    v.set("count", count_);
    v.set("sum", sum_);
    v.set("min", min());
    v.set("max", max_);
    v.set("mean", mean());
    v.set("p50", p50());
    v.set("p95", p95());
    v.set("p99", p99());
    return v;
}

namespace {

/** Stat's names, indexed by the enum. */
constexpr std::array<std::string_view, StatSet::kNumStats> kStatNames = {
    "cache.hits", "cache.misses", "cache.mshrMerges", "cache.mshrStalls",
    "cache.prefetches", "cache.reads", "cache.writebacks", "cache.writes",
    "fu.fpOps", "fu.intOps",
    "l1.hits", "l1.misses", "l1.mshrMerges", "l1.mshrStalls",
    "l1.prefetches", "l1.reads", "l1.writebacks", "l1.writes",
    "llc.hits", "llc.misses", "llc.mshrMerges", "llc.mshrStalls",
    "llc.prefetches", "llc.reads", "llc.writebacks", "llc.writes",
    "lsq.allocs", "lsq.bloomHits", "lsq.bloomMisses", "lsq.bloomProbes",
    "lsq.camLoads", "lsq.camStores", "lsq.forwards",
    "mde.forwards", "mde.mayChecks", "mde.orderTokens",
    "nachos.checksClear", "nachos.checksConflict",
    "nachos.runtimeForwards",
    "net.hops", "net.transfers",
    "scratchpad.reads", "scratchpad.writes",
};

// Enum order is name order, which lets dump() merge the block with the
// map in one pass, and lets name lookups binary-search the table.
static_assert(std::is_sorted(kStatNames.begin(), kStatNames.end()),
              "Stat names must be listed in name order");

/** The block index of `name`, or kNumStats if it is not a Stat. */
size_t
statIndex(std::string_view name)
{
    const auto it =
        std::lower_bound(kStatNames.begin(), kStatNames.end(), name);
    return it != kStatNames.end() && *it == name
               ? static_cast<size_t>(it - kStatNames.begin())
               : StatSet::kNumStats;
}

} // namespace

std::string_view
StatSet::name(Stat s)
{
    return kStatNames[static_cast<size_t>(s)];
}

Counter &
StatSet::counter(const std::string &name)
{
    const size_t idx = statIndex(name);
    if (idx == kNumStats)
        return counters_[name];
    declare(static_cast<Stat>(idx));
    return block_[idx];
}

uint64_t
StatSet::get(const std::string &name) const
{
    const size_t idx = statIndex(name);
    if (idx != kNumStats)
        return block_[idx].value();
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

LatencyHistogram &
StatSet::histogram(const std::string &name)
{
    return histograms_[name];
}

void
StatSet::merge(const StatSet &other)
{
    for (size_t i = 0; i < kNumStats; ++i)
        block_[i].inc(other.block_[i].value());
    present_ |= other.present_;
    for (const auto &entry : other.counters_)
        counters_[entry.first].inc(entry.second.value());
    for (const auto &entry : other.histograms_)
        histograms_[entry.first].merge(entry.second);
}

void
StatSet::resetAll()
{
    for (Counter &c : block_)
        c.reset();
    for (auto &entry : counters_)
        entry.second.reset();
    for (auto &entry : histograms_)
        entry.second.reset();
}

template <typename F>
void
StatSet::forEachCounter(F &&f) const
{
    auto mapIt = counters_.begin();
    for (size_t i = 0; i < kNumStats; ++i) {
        if (!present(i)) {
            NACHOS_ASSERT(block_[i].value() == 0, "counter ",
                          kStatNames[i], " bumped but never declared");
            continue;
        }
        for (; mapIt != counters_.end() && mapIt->first < kStatNames[i];
             ++mapIt)
            f(std::string_view(mapIt->first), mapIt->second.value());
        f(kStatNames[i], block_[i].value());
    }
    for (; mapIt != counters_.end(); ++mapIt)
        f(std::string_view(mapIt->first), mapIt->second.value());
}

JsonValue
StatSet::jsonSnapshot() const
{
    JsonValue counters = JsonValue::makeObject();
    forEachCounter([&](std::string_view name, uint64_t value) {
        counters.set(std::string(name), value);
    });
    JsonValue histograms = JsonValue::makeObject();
    for (const auto &entry : histograms_)
        histograms.set(entry.first, entry.second.jsonSnapshot());
    JsonValue v = JsonValue::makeObject();
    v.set("counters", std::move(counters));
    v.set("histograms", std::move(histograms));
    return v;
}

std::vector<std::pair<std::string, uint64_t>>
StatSet::dump() const
{
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(static_cast<size_t>(std::popcount(present_)) +
                counters_.size());
    forEachCounter([&](std::string_view name, uint64_t value) {
        out.emplace_back(name, value);
    });
    return out;
}

Histogram::Histogram(uint64_t max_bucket) : buckets_(max_bucket, 0)
{
    NACHOS_ASSERT(max_bucket > 0, "histogram needs at least one bucket");
}

void
Histogram::sample(uint64_t value, uint64_t weight)
{
    if (value < buckets_.size())
        buckets_[value] += weight;
    else
        overflow_ += weight;
    total_ += weight;
    weightedSum_ += value * weight;
}

uint64_t
Histogram::bucket(uint64_t idx) const
{
    NACHOS_ASSERT(idx < buckets_.size(), "histogram bucket out of range");
    return buckets_[idx];
}

double
Histogram::mean() const
{
    return total_ == 0 ? 0.0
                       : static_cast<double>(weightedSum_) /
                             static_cast<double>(total_);
}

double
Histogram::cumulativeAt(uint64_t v) const
{
    if (total_ == 0)
        return 0.0;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < buckets_.size() && i <= v; ++i)
        acc += buckets_[i];
    if (v >= buckets_.size())
        acc += overflow_;
    return static_cast<double>(acc) / static_cast<double>(total_);
}

} // namespace nachos
