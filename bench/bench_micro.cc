/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: the
 * alias pipeline, MDE insertion, the cycle simulator, the bloom
 * filter, the comparator station, and the synthesizer.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "harness/suite_runner.hh"
#include "ir/builder.hh"
#include "lsq/bloom.hh"
#include "mde/inserter.hh"
#include "mem/hierarchy.hh"
#include "nachos/may_station.hh"
#include "support/event_queue.hh"
#include "support/logging.hh"
#include "workloads/suite.hh"

namespace nachos {
namespace {

void
BM_SynthesizeRegion(benchmark::State &state)
{
    setQuiet(true);
    const BenchmarkInfo &info = benchmarkByName("equake");
    for (auto _ : state) {
        Region r = synthesizeRegion(info);
        benchmark::DoNotOptimize(r.numOps());
    }
}
BENCHMARK(BM_SynthesizeRegion);

void
BM_AliasPipeline(benchmark::State &state)
{
    setQuiet(true);
    const BenchmarkInfo &info = benchmarkByName("equake");
    Region r = synthesizeRegion(info);
    for (auto _ : state) {
        AliasAnalysisResult res = runAliasPipeline(r);
        benchmark::DoNotOptimize(res.final().all.total());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(r.numMemOps() * (r.numMemOps() - 1) / 2));
}
BENCHMARK(BM_AliasPipeline);

void
BM_MdeInsertion(benchmark::State &state)
{
    setQuiet(true);
    Region r = synthesizeRegion(benchmarkByName("povray"));
    AliasAnalysisResult res = runAliasPipeline(r);
    for (auto _ : state) {
        MdeSet mdes = insertMdes(r, res.matrix);
        benchmark::DoNotOptimize(mdes.size());
    }
}
BENCHMARK(BM_MdeInsertion);

void
BM_SimulatorInvocation(benchmark::State &state)
{
    setQuiet(true);
    Region r = synthesizeRegion(benchmarkByName("parser"));
    AliasAnalysisResult res = runAliasPipeline(r);
    MdeSet mdes = insertMdes(r, res.matrix);
    SimConfig cfg;
    cfg.invocations = 16;
    const BackendKind kind =
        static_cast<BackendKind>(state.range(0));
    for (auto _ : state) {
        SimResult sim = simulate(r, mdes, kind, cfg);
        benchmark::DoNotOptimize(sim.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_SimulatorInvocation)
    ->Arg(0)  // OPT-LSQ
    ->Arg(1)  // NACHOS-SW
    ->Arg(2); // NACHOS

/**
 * Event-queue throughput through the simulator's access pattern:
 * schedule a batch, then drain it a wave (one cycle's events) at a
 * time. Latencies spread each batch over the whole 1024-cycle ring,
 * with a few DRAM-distance and beyond-the-ring (overflow) completions,
 * so every slot's list and the shared node pool are exercised.
 */
void
BM_EventQueuePushPop(benchmark::State &state)
{
    struct Ev
    {
        int64_t value;
        uint32_t op;
        uint32_t slot;
    };
    constexpr uint32_t kBatch = 256;
    CalendarQueue<Ev> queue;
    std::vector<Ev> wave;
    uint64_t scheduled = 0;
    for (auto _ : state) {
        for (uint32_t i = 0; i < kBatch; ++i) {
            // Mostly short hops, some L1/DRAM-ish, 1 in 32 past the ring.
            const uint64_t lat = i % 32 == 0   ? 1500 + i
                                 : i % 8 == 0  ? 228
                                 : i % 4 == 0  ? 1 + (i * 37) % 1023
                                               : 1 + i % 16;
            queue.schedule(queue.now() + lat,
                           {static_cast<int64_t>(i), i, 0});
            ++scheduled;
        }
        while (!queue.empty()) {
            benchmark::DoNotOptimize(queue.drainWave(wave));
            benchmark::DoNotOptimize(wave.data());
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(scheduled));
}
BENCHMARK(BM_EventQueuePushPop);

/**
 * Operand fan-out delivery: one producer feeding `range(0)` consumers
 * stresses the precomputed CSR edge tables (vs the former per-delivery
 * users x operand-slots rescan). Items = delivered operands.
 */
void
BM_OperandFanout(benchmark::State &state)
{
    setQuiet(true);
    const uint32_t consumers = static_cast<uint32_t>(state.range(0));
    RegionBuilder b("fanout");
    OpId x = b.liveIn();
    OpId y = b.liveIn();
    for (uint32_t i = 0; i < consumers; ++i)
        b.liveOut(b.iadd(x, y));
    Region r = b.build();
    AliasAnalysisResult res = runAliasPipeline(r);
    MdeSet mdes = insertMdes(r, res.matrix);
    SimConfig cfg;
    cfg.invocations = 8;
    for (auto _ : state) {
        SimResult sim = simulate(r, mdes, BackendKind::NachosSw, cfg);
        benchmark::DoNotOptimize(sim.cycles);
    }
    // Each invocation delivers 2 operands to every consumer.
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            8 * 2 * consumers);
}
BENCHMARK(BM_OperandFanout)->Arg(16)->Arg(128);

/**
 * Per-invocation state reset: a wide, shallow region re-entered for
 * many invocations is dominated by seedInvocation (arena clears + seed
 * events), the former states_.assign + per-op inputValues.assign path.
 * Items = op-resets.
 */
void
BM_InvocationReset(benchmark::State &state)
{
    setQuiet(true);
    constexpr uint32_t kOps = 256;
    constexpr uint64_t kInvocations = 64;
    RegionBuilder b("reset");
    for (uint32_t i = 0; i < kOps; ++i)
        b.liveOut(b.constant(static_cast<int64_t>(i)));
    Region r = b.build();
    AliasAnalysisResult res = runAliasPipeline(r);
    MdeSet mdes = insertMdes(r, res.matrix);
    SimConfig cfg;
    cfg.invocations = kInvocations;
    for (auto _ : state) {
        SimResult sim = simulate(r, mdes, BackendKind::NachosSw, cfg);
        benchmark::DoNotOptimize(sim.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kInvocations) *
                            (2 * kOps));
}
BENCHMARK(BM_InvocationReset);

/**
 * L1 hit streaming: a working set far smaller than the 64 KiB L1,
 * touched line by line — after warm-up every access runs the inlined
 * hit path (handle-cached stats, no hashing, devirtualized chain).
 * Items = timed accesses.
 */
void
BM_MemHitStreaming(benchmark::State &state)
{
    StatSet stats;
    MemoryHierarchy mem{HierarchyConfig{}, stats};
    constexpr uint64_t kLines = 128; // 8 KiB, fits every L1 set
    uint64_t cycle = 0;
    uint64_t accesses = 0;
    for (uint64_t line = 0; line < kLines; ++line)
        mem.timedAccess(line * 64, false, cycle++);
    for (auto _ : state) {
        for (uint64_t line = 0; line < kLines; ++line) {
            benchmark::DoNotOptimize(
                mem.timedAccess(line * 64, (line & 7) == 0, cycle));
            ++cycle;
        }
        accesses += kLines;
    }
    state.SetItemsProcessed(static_cast<int64_t>(accesses));
}
BENCHMARK(BM_MemHitStreaming);

/**
 * Miss streaming: every access touches a new line of an 8 MiB sweep
 * (larger than the LLC), exercising the out-of-line miss path — MSHR
 * allocation, next-level fill, victim choice, writeback of dirtied
 * lines. Items = timed accesses.
 */
void
BM_MemMissStreaming(benchmark::State &state)
{
    StatSet stats;
    MemoryHierarchy mem{HierarchyConfig{}, stats};
    constexpr uint64_t kLines = (8 * 1024 * 1024) / 64;
    uint64_t cycle = 0;
    uint64_t line = 0;
    uint64_t accesses = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.timedAccess((line % kLines) * 64, (line & 1) == 0,
                            cycle));
        ++line;
        cycle += 4; // keep MSHRs from saturating into stalls only
        ++accesses;
    }
    state.SetItemsProcessed(static_cast<int64_t>(accesses));
}
BENCHMARK(BM_MemMissStreaming);

/**
 * Random mix over a 1 MiB window: hits in L1 and LLC interleave with
 * misses and writebacks, approximating the simulator's real address
 * streams. Items = timed accesses.
 */
void
BM_MemRandomMix(benchmark::State &state)
{
    StatSet stats;
    MemoryHierarchy mem{HierarchyConfig{}, stats};
    constexpr uint64_t kMask = (1 << 20) - 1; // 1 MiB window
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint64_t cycle = 0;
    uint64_t accesses = 0;
    for (auto _ : state) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        benchmark::DoNotOptimize(
            mem.timedAccess(x & kMask & ~uint64_t{7}, (x & 3) == 0,
                            cycle));
        ++cycle;
        ++accesses;
    }
    state.SetItemsProcessed(static_cast<int64_t>(accesses));
}
BENCHMARK(BM_MemRandomMix);

/**
 * Functional (value) memory read/write mix: word writes then a read
 * stream over half-written pages, so both the memcpy fast path and the
 * background-byte merge path run. Items = operations.
 */
void
BM_FunctionalMemoryMix(benchmark::State &state)
{
    FunctionalMemory fm;
    constexpr uint64_t kWords = 4096; // 32 KiB: 8 pages
    for (uint64_t w = 0; w < kWords; w += 2)
        fm.write(w * 8, 8, static_cast<int64_t>(w));
    uint64_t w = 0;
    uint64_t ops = 0;
    int64_t sink = 0;
    for (auto _ : state) {
        if ((w & 7) == 0)
            fm.write((w % kWords) * 8, 8, static_cast<int64_t>(w));
        else
            sink += fm.read((w % kWords) * 8, 8);
        ++w;
        ++ops;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_FunctionalMemoryMix);

/**
 * Hierarchy reset cost after a bounded touch: the epoch-bump cache
 * reset plus the page-bitmap clear must scale with touched state, not
 * with capacity. Items = resets.
 */
void
BM_HierarchyReset(benchmark::State &state)
{
    StatSet stats;
    MemoryHierarchy mem{HierarchyConfig{}, stats};
    uint64_t resets = 0;
    for (auto _ : state) {
        for (uint64_t line = 0; line < 64; ++line) {
            mem.timedAccess(line * 64, true, line);
            mem.data().write(line * 64, 8, static_cast<int64_t>(line));
        }
        mem.reset();
        ++resets;
    }
    state.SetItemsProcessed(static_cast<int64_t>(resets));
}
BENCHMARK(BM_HierarchyReset);

void
BM_BloomFilter(benchmark::State &state)
{
    BloomFilter bloom;
    for (uint64_t a = 0; a < 32; ++a)
        bloom.insert(0x1000 + a * 8, 8);
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bloom.mayContain(addr, 8));
        addr += 8;
    }
}
BENCHMARK(BM_BloomFilter);

void
BM_SuiteRunner(benchmark::State &state)
{
    setQuiet(true);
    RunRequest req;
    req.invocationsOverride = 4;
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        SuiteRun run = runSuite(benchmarkSuite(), req, threads);
        benchmark::DoNotOptimize(run.outcomes.size());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(benchmarkSuite().size()));
}
BENCHMARK(BM_SuiteRunner)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_MayStationHighFanIn(benchmark::State &state)
{
    const uint32_t parents = static_cast<uint32_t>(state.range(0));
    std::vector<MayCheckStation::ParentState> states(parents);
    std::vector<uint32_t> pending(parents);
    for (auto _ : state) {
        StatSet stats;
        MayCheckStation station(states, pending, stats);
        station.ownAddressReady(0x1000, 8, 0);
        for (uint32_t p = 0; p < parents; ++p)
            station.parentAddressArrived(p, 0x2000 + p * 64, 8, 0);
        benchmark::DoNotOptimize(station.allClearCycle());
    }
}
BENCHMARK(BM_MayStationHighFanIn)->Arg(4)->Arg(16)->Arg(64);

} // namespace
} // namespace nachos

BENCHMARK_MAIN();
