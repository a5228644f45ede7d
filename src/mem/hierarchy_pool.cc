#include "mem/hierarchy_pool.hh"

namespace nachos {

MemoryHierarchy &
HierarchyPool::acquire(const HierarchyConfig &cfg, StatSet &stats)
{
    if (hierarchy_ && hierarchy_->config().sameAs(cfg)) {
        hierarchy_->rebindStats(stats);
    } else {
        // Free the old way arrays first, so two LLCs are never live
        // at once.
        hierarchy_.reset();
        hierarchy_ = std::make_unique<MemoryHierarchy>(cfg, stats);
    }
    return *hierarchy_;
}

} // namespace nachos
