/**
 * @file
 * Software-managed scratchpad for compiler-localized data (paper §III:
 * stack variables and region-private globals are promoted and need no
 * disambiguation).
 */

#ifndef NACHOS_MEM_SCRATCHPAD_HH
#define NACHOS_MEM_SCRATCHPAD_HH

#include <cstdint>

#include "mem/bandwidth.hh"
#include "support/stats.hh"

namespace nachos {

/** Fixed-latency, high-bandwidth local store. */
class Scratchpad
{
  public:
    Scratchpad(uint32_t latency, uint32_t ports, StatSet &stats);

    /** Timed access; returns completion cycle. */
    uint64_t
    access(uint64_t addr, bool write, uint64_t cycle)
    {
        (void)addr;
        stats_->add(write ? Stat::ScratchpadWrites : Stat::ScratchpadReads);
        // Banked: bandwidth is rarely the bottleneck; model
        // generously.
        return bw_.admit(cycle) + latency_;
    }

    void reset() { bw_.reset(); }

    /** Count into `stats` from now on (pooled reuse). */
    void
    rebindStats(StatSet &stats)
    {
        stats_ = &stats;
        stats.declare(Stat::ScratchpadReads);
        stats.declare(Stat::ScratchpadWrites);
    }

  private:
    uint32_t latency_;
    StatSet *stats_ = nullptr;
    BandwidthRegulator bw_;
};

} // namespace nachos

#endif // NACHOS_MEM_SCRATCHPAD_HH
