#include "mem/hierarchy.hh"

namespace nachos {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg,
                                 StatSet &stats)
    : cfg_(cfg), dram_(cfg.dramLatency, cfg.dramRequestsPerCycle),
      llc_(cfg_.llc, dram_, stats), l1_(cfg_.l1, llc_, stats),
      scratchpad_(cfg.scratchpadLatency, 8, stats)
{}

bool
HierarchyConfig::sameAs(const HierarchyConfig &o) const
{
    return l1.sameAs(o.l1) && llc.sameAs(o.llc) &&
           dramLatency == o.dramLatency &&
           dramRequestsPerCycle == o.dramRequestsPerCycle &&
           scratchpadLatency == o.scratchpadLatency;
}

void
MemoryHierarchy::reset()
{
    l1_.reset();
    llc_.reset();
    dram_.reset();
    scratchpad_.reset();
    data_.reset();
}

void
MemoryHierarchy::rebindStats(StatSet &stats)
{
    // The same counters construction declares: llc, l1, scratchpad.
    llc_.rebindStats(stats);
    l1_.rebindStats(stats);
    scratchpad_.rebindStats(stats);
    reset();
}

} // namespace nachos
