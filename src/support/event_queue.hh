/**
 * @file
 * Calendar queue for discrete-event simulation: a ring of per-cycle
 * FIFO lists threaded through one node pool (freed nodes are reused
 * by any slot) plus an overflow min-heap for events beyond the ring
 * window.
 *
 * Ordering contract — identical to a priority queue keyed on
 * (cycle, insertion sequence): events pop in non-decreasing cycle
 * order, and events for the same cycle pop in the order they were
 * scheduled (FIFO), including events scheduled *for the current cycle*
 * from within a handler while that cycle is draining.
 *
 * Why it is fast: schedule() and pop() are O(1) list appends/unlinks
 * on pooled nodes for any event within `BucketCount` cycles of now
 * (the common case: operand-network and cache latencies are tens of
 * cycles), with no per-event allocation once the pool has grown to the
 * most events ever pending at once; the heap is touched only by
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
        const size_t slot = seekOccupied();
        const uint32_t idx = head_[slot];
        Node &node = pool_[idx];
        ev = node.ev;
        head_[slot] = node.next;
        if (node.next == kNil)
            clearOccupied(slot);
        node.next = free_;
        free_ = idx;
        --size_;
        return now_;
    }

    /**
     * Replace `out`'s contents with every event currently enqueued for
     * the earliest pending cycle, in FIFO order, and advance now() to
     * that cycle. The events are copied out and the slot's nodes go
     * back to the pool, so events the caller schedules for that same
     * cycle while processing the wave start a fresh batch and the next
     * drainWave at the same now() returns exactly that batch. Mixes
     * freely with pop(). Must not be called on an empty queue.
     */
    uint64_t
    drainWave(std::vector<Event> &out)
    {
        NACHOS_ASSERT(size_ > 0, "drainWave from empty event queue");
        const size_t slot = seekOccupied();
        out.clear();
        for (uint32_t idx = head_[slot]; idx != kNil;
             idx = pool_[idx].next)
            out.push_back(pool_[idx].ev);
        pool_[tail_[slot]].next = free_;
        free_ = head_[slot];
        clearOccupied(slot);
        size_ -= out.size();
        return now_;
    }

    /**
     * Rewind to cycle 0 for a new run, discarding any pending events.
     * Every slot's events live in one node pool, so a reused queue
     * schedules without allocating once the pool has grown to the
     * largest number of events a run had pending at once, whichever
     * slots its cycles land in. The pool keeps its capacity unless it
     * grew past kRetainedNodes, in which case it is freed, so one huge
     * run does not pin memory for the rest of the queue's life. Cost
     * is O(BucketCount / 64).
     */
    void
    reset()
    {
        if (pool_.capacity() > kRetainedNodes)
            std::vector<Node>().swap(pool_);
        else
            pool_.clear();
        free_ = kNil;
        occupied_.fill(0);
        overflow_.clear();
        now_ = 0;
        seq_ = 0;
        size_ = 0;
    }

    /** Largest pool capacity (in events) reset() keeps. */
    static constexpr size_t kRetainedNodes = 4096;

  private:
    /** Pool index that ends a slot's list and the free list. */
    static constexpr uint32_t kNil = UINT32_MAX;

    /** One pooled event, linked into its slot's FIFO or the free list. */
    struct Node
    {
        Event ev;
        uint32_t next;
    };

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

    /** Append to a ring slot's list, taking a node from the pool. */
    void
    pushToSlot(size_t slot, const Event &ev)
    {
        uint32_t idx = free_;
        if (idx != kNil) {
            free_ = pool_[idx].next;
            pool_[idx] = Node{ev, kNil};
        } else {
            NACHOS_ASSERT(pool_.size() < kNil, "event pool exhausted");
            idx = static_cast<uint32_t>(pool_.size());
            pool_.push_back(Node{ev, kNil});
        }
        if (isOccupied(slot)) {
            pool_[tail_[slot]].next = idx;
        } else {
            head_[slot] = idx;
            markOccupied(slot);
        }
        tail_[slot] = idx;
    }

    bool
    isOccupied(size_t slot) const
    {
        return (occupied_[slot / 64] >> (slot % 64)) & 1;
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

    /** Advance the clock to the earliest pending cycle; its slot. */
    size_t
    seekOccupied()
    {
        while (!isOccupied(now_ & (BucketCount - 1)))
            advance();
        return now_ & (BucketCount - 1);
    }

    /**
     * Cyclic distance from `from` to the next occupied ring slot
     * (searching slots from+1, from+2, ...), or 0 if the ring holds no
     * events. `from` itself is empty.
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

    /** Every slot's events; a slot's list runs head_ -> tail_. */
    std::vector<Node> pool_;
    /** First free node of pool_, or kNil (then pool_ grows). */
    uint32_t free_ = kNil;
    /** A slot's head_/tail_ are valid only while it is occupied. */
    std::array<uint32_t, BucketCount> head_{};
    std::array<uint32_t, BucketCount> tail_{};
    std::array<uint64_t, BucketCount / 64> occupied_{};
    std::vector<OverflowEntry> overflow_;
    uint64_t now_ = 0;
    uint64_t seq_ = 0;
    size_t size_ = 0;
};

} // namespace nachos

#endif // NACHOS_SUPPORT_EVENT_QUEUE_HH
