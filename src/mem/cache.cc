#include "mem/cache.hh"

#include <cstring>

#include "support/logging.hh"

namespace nachos {

Stat
cacheLevelStat(const char *name)
{
    if (std::strcmp(name, "l1") == 0)
        return Stat::L1Hits;
    if (std::strcmp(name, "llc") == 0)
        return Stat::LlcHits;
    if (std::strcmp(name, "cache") == 0)
        return Stat::CacheHits;
    NACHOS_FATAL("cache level '", name,
                 "' has no counters (known: l1, llc, cache)");
}

bool
CacheConfig::sameAs(const CacheConfig &o) const
{
    return sizeBytes == o.sizeBytes && assoc == o.assoc &&
           lineBytes == o.lineBytes && hitLatency == o.hitLatency &&
           numMshrs == o.numMshrs && ports == o.ports &&
           nextLinePrefetch == o.nextLinePrefetch &&
           std::strcmp(name, o.name) == 0;
}

// Out-of-line homes for the cache template over the fixed hierarchy
// chain (L1 -> LLC -> DRAM) and the virtual test seam.
template class CacheT<MemLevel>;
template class CacheT<MainMemory>;
template class CacheT<CacheT<MainMemory>>;

} // namespace nachos
