#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "support/json.hh"
#include "support/random.hh"
#include "support/stats.hh"

namespace nachos {
namespace {

TEST(StatSet, CounterCreatedOnFirstUse)
{
    StatSet stats;
    EXPECT_EQ(stats.get("l1.hits"), 0u);
    stats.counter("l1.hits").inc();
    stats.counter("l1.hits").inc(4);
    EXPECT_EQ(stats.get("l1.hits"), 5u);
}

TEST(StatSet, ResetAllZeroes)
{
    StatSet stats;
    stats.counter("a").inc(3);
    stats.counter("b").inc(7);
    stats.resetAll();
    EXPECT_EQ(stats.get("a"), 0u);
    EXPECT_EQ(stats.get("b"), 0u);
}

TEST(StatSet, DumpSortedByName)
{
    StatSet stats;
    stats.counter("z").inc(1);
    stats.counter("a").inc(2);
    auto dump = stats.dump();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_EQ(dump[0].first, "a");
    EXPECT_EQ(dump[1].first, "z");
}

TEST(StatSet, BlockNamesResolveToTheirStat)
{
    StatSet stats;
    for (size_t i = 0; i < StatSet::kNumStats; ++i) {
        const Stat s = static_cast<Stat>(i);
        stats.counter(std::string(StatSet::name(s))).inc(i + 1);
        EXPECT_EQ(stats.get(s), i + 1) << StatSet::name(s);
    }
    EXPECT_EQ(StatSet::name(Stat::L1Hits), "l1.hits");
    EXPECT_EQ(StatSet::name(cacheStat(Stat::LlcHits, CacheStat::Writes)),
              "llc.writes");
    EXPECT_EQ(StatSet::name(Stat::NachosRuntimeForwards),
              "nachos.runtimeForwards");
}

TEST(StatSet, DeclaredCounterIsListedAtZero)
{
    StatSet stats;
    stats.declare(Stat::NetHops);
    stats.counter("a").inc(1);
    stats.add(Stat::NetTransfers, 0); // undeclared: not listed
    EXPECT_EQ(stats.dump(),
              (std::vector<std::pair<std::string, uint64_t>>{
                  {"a", 1}, {"net.hops", 0}}));
}

/**
 * The counter set that a map of every name would hold: what dump()
 * printed before the simulator's names moved into the block.
 */
using NameMap = std::map<std::string, uint64_t>;

std::vector<std::pair<std::string, uint64_t>>
asDump(const NameMap &m)
{
    return {m.begin(), m.end()};
}

/** Random bumps over block names (by index and by name) and others. */
void
fillRandomly(StatSet &stats, NameMap &want, Rng &rng)
{
    static const char *const kOther[] = {
        "a", "cache.hit", "fu", "l1.z", "lsq.camLoadsX", "net.",
        "queue.depth", "zz.last", "service.accepted"};
    for (int i = 0; i < 40; ++i) {
        const uint64_t n = rng.below(5);
        if (rng.below(2) == 0) {
            const Stat s = static_cast<Stat>(rng.below(StatSet::kNumStats));
            stats.declare(s);
            stats.add(s, n);
            want[std::string(StatSet::name(s))] += n;
        } else {
            const std::string name = kOther[rng.below(std::size(kOther))];
            stats.counter(name).inc(n);
            want[name] += n;
        }
    }
}

TEST(StatSet, MixedBlockAndMapMatchTheMapOnlyOutput)
{
    Rng rng(17);
    for (int round = 0; round < 50; ++round) {
        StatSet a;
        StatSet b;
        NameMap wantA;
        NameMap wantB;
        fillRandomly(a, wantA, rng);
        fillRandomly(b, wantB, rng);
        ASSERT_EQ(a.dump(), asDump(wantA)) << "round " << round;

        const JsonValue snap = a.jsonSnapshot();
        const auto &members = snap.find("counters")->members();
        ASSERT_EQ(members.size(), wantA.size());
        auto it = wantA.begin();
        for (const auto &[name, value] : members) {
            EXPECT_EQ(name, it->first);
            EXPECT_EQ(value.asU64(), it->second);
            ++it;
        }

        a.merge(b);
        for (const auto &[name, value] : wantB)
            wantA[name] += value;
        ASSERT_EQ(a.dump(), asDump(wantA)) << "round " << round;
        for (const auto &[name, value] : wantA)
            EXPECT_EQ(a.get(name), value) << name;
    }
}

TEST(StatSetDeathTest, BumpingAnUndeclaredCounterIsFatalOnDump)
{
    StatSet stats;
    stats.add(Stat::LsqAllocs);
    EXPECT_DEATH((void)stats.dump(), "lsq.allocs bumped but never declared");
}

TEST(LatencyHistogram, EmptyIsAllZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

TEST(LatencyHistogram, SingleSampleClampsToExactValue)
{
    LatencyHistogram h;
    h.sample(10);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 10u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 10u);
    // Small values have exact buckets, and at any magnitude the clamp
    // to the observed range makes every percentile exact for a single
    // sample.
    EXPECT_EQ(h.p50(), 10u);
    EXPECT_EQ(h.p95(), 10u);
    EXPECT_EQ(h.p99(), 10u);
}

TEST(LatencyHistogram, Log2BucketPercentiles)
{
    LatencyHistogram h;
    for (uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 5050u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    // Each octave holds 16 sub-buckets, so the answer is the upper
    // bound of a bucket 2 wide (32..63) or 4 wide (64..127), not of
    // the whole octave. Rank 50 lands in 50..51.
    EXPECT_EQ(h.p50(), 51u);
    EXPECT_EQ(h.p95(), 95u); // 92..95
    EXPECT_EQ(h.p99(), 99u); // 96..99
    EXPECT_EQ(h.percentile(1), 1u);
}

TEST(LatencyHistogram, WeightAndBuckets)
{
    LatencyHistogram h;
    h.sample(0);
    h.sample(4, 3);
    h.sample(100);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 112u);
    EXPECT_EQ(h.bucket(0), 1u); // values below 32 count exactly
    EXPECT_EQ(h.bucket(4), 3u);
    // 100 is in 64..127, split into 16 buckets of 4: 100..103.
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(
                  LatencyHistogram::bucketOf(100)),
              103u);
    EXPECT_EQ(h.bucket(LatencyHistogram::bucketOf(100)), 1u);
}

TEST(LatencyHistogram, BucketsTileEveryValue)
{
    // Consecutive buckets cover consecutive ranges with no gap or
    // overlap, up to UINT64_MAX in the last one, and each is narrower
    // than 1/16 of its values.
    uint64_t lo = 0;
    for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        const uint64_t hi = LatencyHistogram::bucketUpperBound(b);
        ASSERT_GE(hi, lo) << b;
        EXPECT_EQ(LatencyHistogram::bucketOf(lo), b);
        EXPECT_EQ(LatencyHistogram::bucketOf(hi), b);
        EXPECT_LE(hi - lo, lo / 16) << b;
        if (b + 1 == LatencyHistogram::kBuckets)
            EXPECT_EQ(hi, UINT64_MAX);
        else
            lo = hi + 1;
    }
}

TEST(LatencyHistogram, UniformSpreadPercentilesWithinTenPercent)
{
    // Samples spread uniformly over 300-700 us, in a scrambled order:
    // every percentile must land within 10% of the exact nearest-rank
    // order statistic. Log2 buckets could only answer 511 or the
    // clamped max of 700 here, 28% off at p25.
    LatencyHistogram h;
    std::vector<uint64_t> samples;
    for (uint64_t i = 0; i < 4001; ++i)
        samples.push_back(300 + (i * 2909) % 401);
    for (uint64_t v : samples)
        h.sample(v);
    std::sort(samples.begin(), samples.end());
    for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
        const size_t rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(samples.size())));
        const double exact = static_cast<double>(samples[rank - 1]);
        const double got = static_cast<double>(h.percentile(p));
        EXPECT_LE(std::abs(got - exact), 0.10 * exact)
            << "p" << p << ": " << got << " vs exact " << exact;
    }
}

TEST(LatencyHistogram, ResetAndJsonSnapshot)
{
    LatencyHistogram h;
    h.sample(7);
    h.sample(9);
    JsonValue snap = h.jsonSnapshot();
    ASSERT_NE(snap.find("count"), nullptr);
    EXPECT_EQ(snap.find("count")->asU64(), 2u);
    EXPECT_EQ(snap.find("sum")->asU64(), 16u);
    EXPECT_EQ(snap.find("min")->asU64(), 7u);
    EXPECT_EQ(snap.find("max")->asU64(), 9u);
    EXPECT_DOUBLE_EQ(snap.find("mean")->asDouble(), 8.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.p50(), 0u);
}

TEST(StatSet, JsonSnapshotHasCountersAndHistograms)
{
    StatSet stats;
    stats.counter("z.late").inc(2);
    stats.counter("a.early").inc(1);
    stats.histogram("lat.us").sample(100);
    JsonValue snap = stats.jsonSnapshot();
    const JsonValue *counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_EQ(counters->members().size(), 2u);
    // Name order, not insertion order.
    EXPECT_EQ(counters->members()[0].first, "a.early");
    EXPECT_EQ(counters->members()[1].first, "z.late");
    EXPECT_EQ(counters->find("z.late")->asU64(), 2u);
    const JsonValue *histograms = snap.find("histograms");
    ASSERT_NE(histograms, nullptr);
    const JsonValue *lat = histograms->find("lat.us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->asU64(), 1u);
    EXPECT_EQ(lat->find("p50")->asU64(), 100u);
}

TEST(StatSet, ResetAllClearsHistograms)
{
    StatSet stats;
    stats.histogram("h").sample(5);
    stats.resetAll();
    EXPECT_EQ(stats.histogram("h").count(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4);
    h.sample(0);
    h.sample(1, 2);
    h.sample(3);
    h.sample(10); // overflow
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, Mean)
{
    Histogram h(16);
    h.sample(2);
    h.sample(4);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    Histogram empty(4);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(Histogram, CumulativeFraction)
{
    Histogram h(8);
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(20); // overflow
    EXPECT_DOUBLE_EQ(h.cumulativeAt(0), 0.25);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(2), 0.75);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(100), 1.0);
}

TEST(LatencyHistogram, MergeAddsBucketsAndBounds)
{
    LatencyHistogram a, b;
    a.sample(10);
    a.sample(1000);
    b.sample(3);
    b.sample(50000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 10u + 1000u + 3u + 50000u);
    EXPECT_EQ(a.min(), 3u);
    EXPECT_EQ(a.max(), 50000u);
    // Merging an empty histogram changes nothing.
    const uint64_t p99 = a.p99();
    a.merge(LatencyHistogram());
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.p99(), p99);
}

TEST(LatencyHistogram, MergeMatchesCombinedSampling)
{
    // Percentiles after a merge equal those of one histogram that saw
    // every sample directly — the property the per-shard metrics rely
    // on when the daemon folds shard stats into one snapshot.
    LatencyHistogram combined, left, right;
    for (uint64_t v = 1; v <= 200; ++v) {
        combined.sample(v * 7);
        (v % 2 ? left : right).sample(v * 7);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), combined.count());
    EXPECT_EQ(left.sum(), combined.sum());
    EXPECT_EQ(left.p50(), combined.p50());
    EXPECT_EQ(left.p95(), combined.p95());
    EXPECT_EQ(left.p99(), combined.p99());
}

TEST(StatSet, MergeFoldsCountersAndHistograms)
{
    StatSet a, b;
    a.counter("jobs.completed").inc(3);
    a.histogram("latency.totalMicros").sample(100);
    b.counter("jobs.completed").inc(2);
    b.counter("shard.steals").inc(); // only in b
    b.histogram("latency.totalMicros").sample(900);
    b.histogram("latency.queueMicros").sample(4); // only in b
    a.merge(b);
    EXPECT_EQ(a.get("jobs.completed"), 5u);
    EXPECT_EQ(a.get("shard.steals"), 1u);
    EXPECT_EQ(a.histogram("latency.totalMicros").count(), 2u);
    EXPECT_EQ(a.histogram("latency.totalMicros").sum(), 1000u);
    EXPECT_EQ(a.histogram("latency.queueMicros").count(), 1u);
    // b is untouched.
    EXPECT_EQ(b.get("jobs.completed"), 2u);
}

} // namespace
} // namespace nachos
