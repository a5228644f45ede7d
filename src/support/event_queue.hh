/**
 * @file
 * Calendar queue for discrete-event simulation: a ring of per-cycle
 * FIFO buckets (one vector per upcoming cycle, capacity reused across
 * cycles) plus an overflow min-heap for events beyond the ring window.
 *
 * Ordering contract — identical to a priority queue keyed on
 * (cycle, insertion sequence): events pop in non-decreasing cycle
 * order, and events for the same cycle pop in the order they were
 * scheduled (FIFO), including events scheduled *for the current cycle*
 * from within a handler while that cycle is draining.
 *
 * Why it is fast: schedule() and pop() are O(1) appends/reads into a
 * reused vector for any event within `BucketCount` cycles of now (the
 * common case: operand-network and cache latencies are tens of
 * cycles), with no per-event allocation; the heap is touched only by
 * far-future events (DRAM-miss completions when BucketCount is small).
 */

#ifndef NACHOS_SUPPORT_EVENT_QUEUE_HH
#define NACHOS_SUPPORT_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace nachos {

/**
 * @tparam Event   small trivially-copyable record stored by value
 * @tparam BucketCount ring size in cycles; must be a power of two and
 *         a multiple of 64. Events scheduled further ahead than this
 *         overflow into a heap and migrate back as the clock advances.
 */
template <typename Event, size_t BucketCount = 1024>
class CalendarQueue
{
    static_assert((BucketCount & (BucketCount - 1)) == 0,
                  "BucketCount must be a power of two");
    static_assert(BucketCount >= 64 && BucketCount % 64 == 0,
                  "BucketCount must be a multiple of 64");

  public:
    /** Current simulation cycle (the cycle of the last pop). */
    uint64_t now() const { return now_; }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Enqueue `ev` for `cycle`. The clock never runs backwards. */
    void
    schedule(uint64_t cycle, const Event &ev)
    {
        NACHOS_ASSERT(cycle >= now_, "scheduled into the past: cycle ",
                      cycle, " now ", now_);
        ++size_;
        ++seq_;
        if (cycle - now_ < BucketCount) {
            pushToSlot(cycle & (BucketCount - 1), ev);
        } else {
            overflow_.push_back(OverflowEntry{cycle, seq_, ev});
            std::push_heap(overflow_.begin(), overflow_.end(),
                           OverflowLater{});
        }
    }

    /**
     * Remove and return the earliest event, advancing now() to its
     * cycle. Must not be called on an empty queue.
     */
    uint64_t
    pop(Event &ev)
    {
        NACHOS_ASSERT(size_ > 0, "pop from empty event queue");
        for (;;) {
            std::vector<Event> &bucket = ring_[now_ & (BucketCount - 1)];
            if (cursor_ < bucket.size()) {
                ev = bucket[cursor_++];
                --size_;
                return now_;
            }
            bucket.clear();
            clearOccupied(now_ & (BucketCount - 1));
            cursor_ = 0;
            advance();
        }
    }

    /**
     * Replace `out`'s contents with every event currently enqueued for
     * the earliest pending cycle, in FIFO order, and advance now() to
     * that cycle. The events are copied out and the slot is emptied,
     * so events the caller schedules for that same cycle while
     * processing the wave start a fresh batch and the next drainWave
     * at the same now() returns exactly that batch. Each slot keeps
     * its own storage (a swap would let capacity migrate from slot to
     * slot), so a queue reused across runs of the same schedule
     * allocates nothing once every slot it touches has grown. Must
     * not be mixed with pop() within one drain (pop leaves a
     * partially-consumed bucket behind) and must not be called on an
     * empty queue.
     */
    uint64_t
    drainWave(std::vector<Event> &out)
    {
        NACHOS_ASSERT(size_ > 0, "drainWave from empty event queue");
        NACHOS_ASSERT(cursor_ == 0, "drainWave after partial pop");
        for (;;) {
            std::vector<Event> &bucket = ring_[now_ & (BucketCount - 1)];
            if (!bucket.empty()) {
                out.assign(bucket.begin(), bucket.end());
                bucket.clear();
                size_ -= out.size();
                clearOccupied(now_ & (BucketCount - 1));
                return now_;
            }
            advance();
        }
    }

    /**
     * Rewind to cycle 0 for a new run, discarding any pending events,
     * while keeping bucket capacity so a reused queue schedules without
     * allocating. A bucket grown past kRetainedBucketEvents is freed
     * instead, so the ring retains at most BucketCount times that many
     * events however large a past run's waves were: most waves hold a
     * few events, and large ones must not pin memory for the rest of
     * the queue's life. Both push paths record such a bucket as it
     * grows, so a reset costs O(buckets grown), not O(BucketCount);
     * only a queue reset with events still pending clears every
     * bucket.
     */
    void
    reset()
    {
        for (size_t w = 0; w < grown_.size(); ++w) {
            for (uint64_t bits = grown_[w]; bits != 0; bits &= bits - 1) {
                const size_t slot =
                    w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
                std::vector<Event>().swap(ring_[slot]);
            }
        }
        grown_.fill(0);
        if (size_ != 0) {
            for (std::vector<Event> &bucket : ring_)
                bucket.clear();
        } else if (cursor_ != 0) {
            // pop() leaves the drained bucket's events until it moves on.
            ring_[now_ & (BucketCount - 1)].clear();
        }
        occupied_.fill(0);
        overflow_.clear();
        now_ = 0;
        seq_ = 0;
        size_ = 0;
        cursor_ = 0;
    }

    /** Largest bucket capacity (in events) reset() keeps. */
    static constexpr size_t kRetainedBucketEvents = 4;

  private:
    struct OverflowEntry
    {
        uint64_t cycle;
        uint64_t seq;
        Event ev;
    };

    /** Min-heap comparator on (cycle, seq). */
    struct OverflowLater
    {
        bool
        operator()(const OverflowEntry &a, const OverflowEntry &b) const
        {
            return a.cycle != b.cycle ? a.cycle > b.cycle
                                      : a.seq > b.seq;
        }
    };

    /**
     * Append to a ring slot, recording the slot for reset() to free
     * once its bucket has grown past kRetainedBucketEvents.
     */
    void
    pushToSlot(size_t slot, const Event &ev)
    {
        std::vector<Event> &bucket = ring_[slot];
        if (bucket.empty())
            markOccupied(slot);
        bucket.push_back(ev);
        if (bucket.capacity() > kRetainedBucketEvents)
            grown_[slot / 64] |= uint64_t{1} << (slot % 64);
    }

    void
    markOccupied(size_t slot)
    {
        occupied_[slot / 64] |= uint64_t{1} << (slot % 64);
    }

    void
    clearOccupied(size_t slot)
    {
        occupied_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
    }

    /**
     * Cyclic distance from `from` to the next occupied ring slot
     * (searching slots from+1, from+2, ...), or 0 if the ring holds no
     * events. `from`'s own bit has already been cleared by pop().
     */
    size_t
    nextOccupiedDistance(size_t from) const
    {
        constexpr size_t kWords = BucketCount / 64;
        const size_t start = (from + 1) & (BucketCount - 1);
        for (size_t w = 0; w <= kWords; ++w) {
            const size_t wordIdx = (start / 64 + w) % kWords;
            uint64_t word = occupied_[wordIdx];
            if (w == 0)
                word &= ~uint64_t{0} << (start % 64);
            else if (w == kWords)
                word &= (uint64_t{1} << (start % 64)) - 1;
            if (word != 0) {
                const size_t slot =
                    wordIdx * 64 +
                    static_cast<size_t>(__builtin_ctzll(word));
                return (slot - from) & (BucketCount - 1);
            }
        }
        return 0;
    }

    /** Move the clock to the next cycle holding an event. */
    void
    advance()
    {
        const size_t slot = now_ & (BucketCount - 1);
        const size_t dist = nextOccupiedDistance(slot);
        uint64_t next;
        if (dist != 0) {
            next = now_ + dist;
            if (!overflow_.empty() && overflow_.front().cycle < next)
                next = overflow_.front().cycle;
        } else {
            NACHOS_ASSERT(!overflow_.empty(),
                          "event queue lost track of ", size_,
                          " events");
            next = overflow_.front().cycle;
        }
        now_ = next;
        // Far-future events whose cycle just entered the ring window
        // migrate now, before any direct append for those cycles can
        // happen — heap order is (cycle, seq), so per-cycle FIFO order
        // is preserved.
        while (!overflow_.empty() &&
               overflow_.front().cycle - now_ < BucketCount) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          OverflowLater{});
            const OverflowEntry &e = overflow_.back();
            pushToSlot(e.cycle & (BucketCount - 1), e.ev);
            overflow_.pop_back();
        }
    }

    std::array<std::vector<Event>, BucketCount> ring_;
    std::array<uint64_t, BucketCount / 64> occupied_{};
    /** Slots whose bucket grew past kRetainedBucketEvents. */
    std::array<uint64_t, BucketCount / 64> grown_{};
    std::vector<OverflowEntry> overflow_;
    uint64_t now_ = 0;
    uint64_t seq_ = 0;
    size_t size_ = 0;
    size_t cursor_ = 0;
};

} // namespace nachos

#endif // NACHOS_SUPPORT_EVENT_QUEUE_HH
