/**
 * @file
 * The accelerator-side memory hierarchy from the paper's Figure 3:
 * private L1 (64 KiB, 4-way, 3 cycles) -> shared LLC (4 MiB, 16-way,
 * 25 cycles) -> DRAM (200 cycles), plus the 1-cycle scratchpad that
 * serves compiler-localized accesses.
 *
 * The chain is held by value with each level typed on its concrete
 * successor (L1Cache -> LlcCache -> MainMemory), so a timedAccess()
 * compiles to direct calls with an inlined L1 hit path — no virtual
 * hop per level (DESIGN.md §10).
 */

#ifndef NACHOS_MEM_HIERARCHY_HH
#define NACHOS_MEM_HIERARCHY_HH

#include "mem/cache.hh"
#include "mem/functional_memory.hh"
#include "mem/scratchpad.hh"
#include "support/stats.hh"

namespace nachos {

/** Hierarchy-wide configuration (paper Figure 3 defaults). */
struct HierarchyConfig
{
    CacheConfig l1{64 * 1024, 4, 64, 3, 16, 4, "l1"};
    CacheConfig llc{4 * 1024 * 1024, 16, 64, 25, 32, 4, "llc"};
    uint32_t dramLatency = 200;
    uint32_t dramRequestsPerCycle = 4;
    uint32_t scratchpadLatency = 1;

    /** Field-wise equality — pooled-reuse check (mem/hierarchy_pool). */
    bool sameAs(const HierarchyConfig &o) const;
};

/**
 * Owns the timing levels and the functional store. Memory operations
 * from the CGRA go through timedAccess(); the functional value motion
 * is performed separately by the simulator at well-defined points so
 * ordering bugs surface as value mismatches.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &cfg, StatSet &stats);

    /** Issue a timed access to L1; returns completion cycle. */
    uint64_t
    timedAccess(uint64_t addr, bool write, uint64_t cycle)
    {
        return l1_.access(addr, write, cycle);
    }

    /** Timed scratchpad access; returns completion cycle. */
    uint64_t
    scratchpadAccess(uint64_t addr, bool write, uint64_t cycle)
    {
        return scratchpad_.access(addr, write, cycle);
    }

    /** Would `addr` hit in the L1 right now? */
    bool l1Probe(uint64_t addr) const { return l1_.probe(addr); }

    FunctionalMemory &data() { return data_; }
    const FunctionalMemory &data() const { return data_; }

    /** Reset timing state and functional contents. */
    void reset();

    /**
     * Make this (already-constructed) hierarchy indistinguishable from
     * a fresh `MemoryHierarchy(config(), stats)`: count into `stats`
     * (declaring the same counters construction would) and reset all
     * timing and functional state. The expensive
     * way arrays are retained — this is the pooled-reuse fast path.
     */
    void rebindStats(StatSet &stats);

    const HierarchyConfig &config() const { return cfg_; }

  private:
    HierarchyConfig cfg_;
    MainMemory dram_;
    LlcCache llc_;
    L1Cache l1_;
    Scratchpad scratchpad_;
    FunctionalMemory data_;
};

} // namespace nachos

#endif // NACHOS_MEM_HIERARCHY_HH
