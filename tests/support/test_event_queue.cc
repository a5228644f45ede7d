/**
 * @file
 * CalendarQueue ordering contract: pops come in non-decreasing cycle
 * order with FIFO ordering among same-cycle events — bit-identical to
 * the (cycle, seq) priority queue the simulator used previously. The
 * property test replays random schedules (including schedules issued
 * from within handlers, for the current cycle and far beyond the ring
 * window) against a reference model of the old contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/alloc_hook.hh"
#include "support/event_queue.hh"
#include "support/random.hh"

namespace nachos {
namespace {

struct Ev
{
    uint32_t tag = 0;
};

using Queue = CalendarQueue<Ev, 64>;

std::vector<std::pair<uint64_t, uint32_t>>
drain(Queue &q)
{
    std::vector<std::pair<uint64_t, uint32_t>> out;
    Ev ev;
    while (!q.empty()) {
        const uint64_t cycle = q.pop(ev);
        out.push_back({cycle, ev.tag});
    }
    return out;
}

TEST(CalendarQueue, SameCycleEventsPopFifo)
{
    Queue q;
    for (uint32_t i = 0; i < 100; ++i)
        q.schedule(7, {i});
    const auto out = drain(q);
    ASSERT_EQ(out.size(), 100u);
    for (uint32_t i = 0; i < 100; ++i) {
        EXPECT_EQ(out[i].first, 7u);
        EXPECT_EQ(out[i].second, i);
    }
}

TEST(CalendarQueue, CyclesPopInOrderAcrossRingAndOverflow)
{
    Queue q;
    // Far beyond the 64-cycle ring, interleaved with near events.
    q.schedule(1000, {0});
    q.schedule(3, {1});
    q.schedule(500, {2});
    q.schedule(3, {3});
    q.schedule(65, {4}); // outside the initial window
    const auto out = drain(q);
    const std::vector<std::pair<uint64_t, uint32_t>> want = {
        {3, 1}, {3, 3}, {65, 4}, {500, 2}, {1000, 0}};
    EXPECT_EQ(out, want);
}

TEST(CalendarQueue, HandlerMaySchedForCurrentCycle)
{
    // Events scheduled *for the current cycle* from within a handler
    // must run in this cycle, after everything already queued for it —
    // exactly what the old seq tiebreaker guaranteed.
    Queue q;
    q.schedule(5, {0});
    q.schedule(5, {1});
    std::vector<uint32_t> order;
    Ev ev;
    while (!q.empty()) {
        const uint64_t cycle = q.pop(ev);
        EXPECT_EQ(cycle, 5u);
        order.push_back(ev.tag);
        if (ev.tag == 0)
            q.schedule(5, {2}); // from "inside" handler 0
        if (ev.tag == 2)
            q.schedule(5, {3});
    }
    const std::vector<uint32_t> want = {0, 1, 2, 3};
    EXPECT_EQ(order, want);
}

TEST(CalendarQueue, ClockNeverRunsBackwards)
{
    Queue q;
    q.schedule(10, {0});
    Ev ev;
    EXPECT_EQ(q.pop(ev), 10u);
    EXPECT_EQ(q.now(), 10u);
    // Scheduling at now() is allowed; the past would assert.
    q.schedule(10, {1});
    EXPECT_EQ(q.pop(ev), 10u);
}

TEST(CalendarQueue, ReschedulingKeepsWindowInvariantAfterLongJump)
{
    Queue q;
    q.schedule(0, {0});
    q.schedule(100000, {1}); // deep overflow
    Ev ev;
    EXPECT_EQ(q.pop(ev), 0u);
    EXPECT_EQ(q.pop(ev), 100000u);
    EXPECT_EQ(ev.tag, 1u);
    // After the jump the ring must accept nearby cycles again.
    q.schedule(100001, {2});
    q.schedule(100063, {3});
    EXPECT_EQ(q.pop(ev), 100001u);
    EXPECT_EQ(q.pop(ev), 100063u);
    EXPECT_TRUE(q.empty());
}

/**
 * Reference model of the previous engine's contract: a list stably
 * sorted by cycle (stable sort preserves insertion order, i.e. the
 * old seq tiebreaker).
 */
TEST(CalendarQueue, PropertyMatchesPriorityQueueContract)
{
    Rng rng(12345);
    for (int round = 0; round < 50; ++round) {
        Queue q;
        std::vector<std::pair<uint64_t, uint32_t>> model;
        uint32_t tag = 0;

        // Initial burst.
        for (int i = 0; i < 40; ++i) {
            const uint64_t cycle = rng.below(300);
            q.schedule(cycle, {tag});
            model.push_back({cycle, tag});
            ++tag;
        }

        std::vector<std::pair<uint64_t, uint32_t>> got;
        Ev ev;
        while (!q.empty()) {
            const uint64_t cycle = q.pop(ev);
            got.push_back({cycle, ev.tag});
            // Handlers occasionally schedule follow-ups: same cycle,
            // near future, or deep into overflow territory.
            if (rng.below(100) < 30 && tag < 2000) {
                const uint64_t delta =
                    rng.below(100) < 20 ? 0 : 1 + rng.below(400);
                q.schedule(cycle + delta, {tag});
                model.push_back({cycle + delta, tag});
                ++tag;
            }
        }

        std::stable_sort(model.begin(), model.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        ASSERT_EQ(got, model) << "round " << round;
    }
}

TEST(CalendarQueue, DrainWaveReturnsOneCycleInFifoOrder)
{
    Queue q;
    q.schedule(9, {0});
    q.schedule(5, {1});
    q.schedule(5, {2});
    q.schedule(500, {3}); // overflow, beyond the 64-cycle ring

    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 5u);
    ASSERT_EQ(wave.size(), 2u); // cycle 9 stays queued
    EXPECT_EQ(wave[0].tag, 1u);
    EXPECT_EQ(wave[1].tag, 2u);
    EXPECT_EQ(q.size(), 2u);

    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 9u);
    ASSERT_EQ(wave.size(), 1u);
    EXPECT_EQ(wave[0].tag, 0u);

    // The overflow event migrates into the ring as the clock advances.
    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 500u);
    ASSERT_EQ(wave.size(), 1u);
    EXPECT_EQ(wave[0].tag, 3u);
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, DrainWaveSameCycleReschedulesFormTheNextWave)
{
    // Handlers processing a wave may schedule follow-ups for the SAME
    // cycle; draining leaves the slot empty, so those form a second
    // wave at the same now() instead of mixing into the first.
    Queue q;
    q.schedule(5, {0});
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 5u);
    ASSERT_EQ(wave.size(), 1u);

    q.schedule(5, {1});
    q.schedule(5, {2});
    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 5u);
    ASSERT_EQ(wave.size(), 2u);
    EXPECT_EQ(wave[0].tag, 1u);
    EXPECT_EQ(wave[1].tag, 2u);
}

TEST(CalendarQueue, DrainWaveKeepsEachSlotsCapacity)
{
    // Steady state allocates nothing: drainWave copies the events out
    // and returns the slot's nodes to the pool, so the next lap of the
    // ring refills from it, and the caller's cleared buffer takes the
    // next wave of the same size.
    Queue q;
    for (uint32_t i = 0; i < 32; ++i)
        q.schedule(1, {i});
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 1u);
    ASSERT_EQ(wave.size(), 32u);
    // Move the clock half a lap on, so cycle 65 is inside the ring.
    q.schedule(33, {0});
    wave.clear();
    EXPECT_EQ(q.drainWave(wave), 33u);

    const uint64_t before = threadAllocCount();
    wave.clear();
    for (uint32_t i = 0; i < 32; ++i)
        q.schedule(65, {i}); // slot 1 again, one lap later
    EXPECT_EQ(q.drainWave(wave), 65u);
    ASSERT_EQ(wave.size(), 32u);
    EXPECT_EQ(wave[31].tag, 31u);
    EXPECT_EQ(threadAllocCount() - before, 0u);
}

TEST(CalendarQueue, DrainWaveMatchesPopOnRandomSchedules)
{
    // Property: grouping drainWave output by cycle must equal what a
    // pop() loop yields on an identically-scheduled queue, including
    // in-wave follow-up schedules for future cycles.
    Rng rng(999);
    for (int round = 0; round < 20; ++round) {
        Queue byPop;
        Queue byWave;
        uint32_t tag = 0;
        for (int i = 0; i < 60; ++i) {
            const uint64_t cycle = rng.below(200);
            byPop.schedule(cycle, {tag});
            byWave.schedule(cycle, {tag});
            ++tag;
        }
        const auto popped = drain(byPop);

        std::vector<std::pair<uint64_t, uint32_t>> waved;
        std::vector<Ev> wave;
        while (!byWave.empty()) {
            wave.clear();
            const uint64_t cycle = byWave.drainWave(wave);
            for (const Ev &ev : wave)
                waved.push_back({cycle, ev.tag});
        }
        ASSERT_EQ(waved, popped) << "round " << round;
    }
}

TEST(CalendarQueue, ResetRewindsTheClockAndDiscardsPendingEvents)
{
    Queue q;
    q.schedule(5, {1});
    q.schedule(500, {2}); // beyond the 64-cycle ring: overflow heap
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 5u);
    ASSERT_FALSE(q.empty());

    q.reset();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0u);
    // Cycle 0 is schedulable again and nothing from before comes back.
    q.schedule(0, {3});
    q.schedule(7, {4});
    EXPECT_EQ(drain(q), (std::vector<std::pair<uint64_t, uint32_t>>{
                            {0, 3}, {7, 4}}));
}

TEST(CalendarQueue, ResetKeepsThePoolUpToTheRetainedCapacity)
{
    // The pool is shared by every slot, so a refill after reset() is
    // free wherever its events land, up to the most events pending at
    // once in the earlier run.
    Queue q;
    for (uint32_t i = 0; i < 48; ++i)
        q.schedule(1, {i});
    q.reset();

    const uint64_t before = threadAllocCount();
    for (uint32_t i = 0; i < 48; ++i)
        q.schedule(i, {i}); // 48 different slots, one event each
    EXPECT_EQ(threadAllocCount() - before, 0u);
    EXPECT_EQ(q.size(), 48u);
}

TEST(CalendarQueue, ResetReleasesAPoolGrownPastTheRetainedCapacity)
{
    Queue q;
    for (uint32_t i = 0; i <= Queue::kRetainedNodes; ++i)
        q.schedule(i % 64, {i});
    q.reset();

    // The oversized pool was released and must grow again.
    const uint64_t before = threadAllocCount();
    q.schedule(0, {0});
    EXPECT_GT(threadAllocCount() - before, 0u);
    EXPECT_EQ(drain(q),
              (std::vector<std::pair<uint64_t, uint32_t>>{{0, 0}}));
}

TEST(CalendarQueue, ResetWithEventsPendingDiscardsThemAndKeepsThePool)
{
    Queue q;
    for (uint32_t i = 0; i < 20; ++i)
        q.schedule(i % 7, {i});
    q.schedule(300, {99}); // overflow heap
    Ev ev;
    EXPECT_EQ(q.pop(ev), 0u);
    q.reset();
    EXPECT_TRUE(q.empty());

    // No slot keeps a list from before, and refilling reuses the pool.
    const uint64_t before = threadAllocCount();
    q.schedule(3, {7});
    q.schedule(3, {8});
    EXPECT_EQ(threadAllocCount() - before, 0u);
    EXPECT_EQ(drain(q), (std::vector<std::pair<uint64_t, uint32_t>>{
                            {3, 7}, {3, 8}}));
}

TEST(CalendarQueue, OverflowMigrationDrawsFromThePool)
{
    // Cycle 100 is beyond the ring at cycle 0: these wait in the
    // overflow heap and reach their slot only when the clock advances,
    // behind nothing scheduled for it directly afterwards.
    Queue q;
    for (uint32_t i = 0; i < 16; ++i)
        q.schedule(100, {i});
    q.schedule(50, {99});
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 50u); // migrates cycle 100's events
    q.schedule(100, {16});
    EXPECT_EQ(q.drainWave(wave), 100u);
    ASSERT_EQ(wave.size(), 17u);
    for (uint32_t i = 0; i < 17; ++i)
        EXPECT_EQ(wave[i].tag, i);
    q.reset();

    // The migrated events' nodes went back to the pool: the same
    // schedule again allocates nothing.
    const uint64_t before = threadAllocCount();
    for (uint32_t i = 0; i < 16; ++i)
        q.schedule(100, {i});
    q.schedule(50, {99});
    EXPECT_EQ(q.drainWave(wave), 50u);
    EXPECT_EQ(q.drainWave(wave), 100u);
    EXPECT_EQ(wave.size(), 16u);
    EXPECT_EQ(threadAllocCount() - before, 0u);
}

TEST(CalendarQueue, WarmQueueAllocatesNothingWhateverSlotsARunTouches)
{
    // Two runs with the same number of events pending at once but
    // disjoint slots: once the first has grown the pool, the second
    // allocates nothing (per-slot storage would have to grow again).
    Queue q;
    std::vector<Ev> wave;
    wave.reserve(64);
    const auto run = [&q, &wave](uint64_t first_cycle) {
        for (uint32_t i = 0; i < 64; ++i)
            q.schedule(first_cycle + i % 8, {i});
        while (!q.empty())
            q.drainWave(wave);
    };
    run(0);
    q.reset();
    const uint64_t before = threadAllocCount();
    run(20);
    q.reset();
    run(40);
    EXPECT_EQ(threadAllocCount() - before, 0u);
}

TEST(CalendarQueue, ResetAfterSmallBucketsAllocatesNothingOnRefill)
{
    static constexpr uint32_t kPerCycle = 4;
    Queue q;
    std::vector<Ev> wave;
    wave.reserve(kPerCycle);
    const auto run = [&q, &wave] {
        for (uint64_t c = 0; c < 64; ++c)
            for (uint32_t i = 0; i < kPerCycle; ++i)
                q.schedule(c, {i});
        while (!q.empty()) {
            wave.clear();
            const uint64_t cycle = q.drainWave(wave);
            EXPECT_EQ(wave.size(), kPerCycle) << cycle;
        }
    };
    run();
    q.reset();
    const uint64_t before = threadAllocCount();
    run();
    q.reset();
    EXPECT_EQ(threadAllocCount() - before, 0u);
}

TEST(CalendarQueue, ResetAfterPopDrainForgetsTheDrainedBucket)
{
    // Events popped from a slot must not come back after a reset.
    Queue q;
    for (uint32_t i = 0; i < 3; ++i)
        q.schedule(5, {i});
    EXPECT_EQ(drain(q).size(), 3u);
    q.reset();
    q.schedule(5, {7});
    EXPECT_EQ(drain(q),
              (std::vector<std::pair<uint64_t, uint32_t>>{{5, 7}}));
}

TEST(CalendarQueue, DrainWaveAfterPartialPopReturnsTheRest)
{
    // pop() unlinks one node at a time, so a partly popped cycle is an
    // ordinary shorter list and drainWave returns what is left of it.
    Queue q;
    q.schedule(3, {0});
    q.schedule(3, {1});
    q.schedule(3, {2});
    q.schedule(4, {3});
    Ev ev;
    EXPECT_EQ(q.pop(ev), 3u);
    EXPECT_EQ(ev.tag, 0u);
    std::vector<Ev> wave;
    EXPECT_EQ(q.drainWave(wave), 3u);
    ASSERT_EQ(wave.size(), 2u);
    EXPECT_EQ(wave[0].tag, 1u);
    EXPECT_EQ(wave[1].tag, 2u);
    EXPECT_EQ(q.pop(ev), 4u);
    EXPECT_EQ(ev.tag, 3u);
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace nachos
