/**
 * @file
 * The NACHOS hardware assist (paper §VII, Figure 13): at every memory
 * operation with MAY-alias parents, a comparator + arbiter + result
 * register dynamically verifies the compiler's uncertainty.
 *
 * Each MAY parent sends its resolved address over the operand network
 * to the younger op's station. The arbiter admits ONE comparison per
 * cycle (the source of the bzip2/sar-pfa fan-in contention the paper
 * reports). A comparison that shows no overlap sets the parent's
 * result bit immediately; on overlap the bit is only set when the
 * parent's completion token arrives. The younger op may issue once
 * every result bit is set (and its own operands are ready).
 */

#ifndef NACHOS_NACHOS_MAY_STATION_HH
#define NACHOS_NACHOS_MAY_STATION_HH

#include <cstdint>
#include <optional>
#include <span>

#include "support/stats.hh"

namespace nachos {

/**
 * One comparator station guarding one younger memory operation. Its
 * per-parent state lives in storage its owner provides, so a backend
 * holds all of a region's stations by value over one flat array.
 */
class MayCheckStation
{
  public:
    /** Per-parent comparison state (one result bit's worth). */
    struct ParentState
    {
        bool addrArrived = false;
        bool completed = false;
        bool compared = false;
        bool conflict = false;
        uint64_t addr = 0;
        uint32_t size = 0;
        uint64_t addrCycle = 0;
        uint64_t completeCycle = 0;
        uint64_t compareDoneCycle = 0;
        /** Cycle the result bit is set, once determined. */
        std::optional<uint64_t> bitSet;
    };

    /**
     * @param parents one state per MAY-alias parent (result bit); the
     *        storage must outlive the station
     * @param pending storage of the same length: the arbiter's queue
     * @param stats energy/event counters (mde.mayChecks et al.)
     * @param compares_per_cycle arbiter width (1 in the paper's
     *        design; larger values model an idealized multi-comparator
     *        station for the contention ablation)
     */
    MayCheckStation(std::span<ParentState> parents,
                    std::span<uint32_t> pending, StatSet &stats,
                    uint32_t compares_per_cycle = 1);

    /** Reset for a new invocation. */
    void reset();

    /** The guarded op's own address resolved at `cycle`. */
    void ownAddressReady(uint64_t addr, uint32_t size, uint64_t cycle);

    /**
     * A parent's address arrived (network latency already applied by
     * the caller). Comparisons are arbitrated one per cycle.
     */
    void parentAddressArrived(uint32_t parent, uint64_t addr,
                              uint32_t size, uint64_t cycle);

    /** A parent's completion token arrived. */
    void parentCompleted(uint32_t parent, uint64_t cycle);

    /**
     * Cycle at which all result bits are known to be set, or nullopt
     * if that still depends on future events.
     */
    std::optional<uint64_t> allClearCycle() const;

    /** The one parent whose comparison found an overlap, if exactly
     *  one has so far. */
    std::optional<uint32_t> soleConflict() const;

    /** Have all parents been compared (no comparison outstanding)? */
    bool allCompared() const;

    /** Cycle the last comparison finished (valid once allCompared). */
    uint64_t lastCompareDoneCycle() const;

    /** Did parent `p` compare as an exact (same addr+size) match? */
    bool exactConflict(uint32_t parent) const;

    /** Number of comparisons performed so far this invocation. */
    uint64_t comparesDone() const { return comparesDone_; }

    uint32_t
    numParents() const
    {
        return static_cast<uint32_t>(parents_.size());
    }

  private:
    std::span<ParentState> parents_;
    /** Arrival-ordered queue of parents waiting for the comparator:
     *  the first numPending_ entries. */
    std::span<uint32_t> pending_;
    uint32_t numPending_ = 0;
    StatSet *stats_;
    uint32_t comparesPerCycle_;
    uint64_t comparatorSlot_ = 0;
    bool ownReady_ = false;
    uint64_t ownAddr_ = 0;
    uint32_t ownSize_ = 0;
    uint64_t ownCycle_ = 0;
    uint64_t comparesDone_ = 0;

    void runComparisons();
    void tryCompare(uint32_t parent);
};

} // namespace nachos

#endif // NACHOS_NACHOS_MAY_STATION_HH
