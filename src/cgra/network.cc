#include "cgra/network.hh"

#include <algorithm>

namespace nachos {

uint64_t
networkLatency(uint32_t hops, const NetworkConfig &cfg)
{
    const uint64_t cycles =
        (hops + cfg.hopsPerCycle - 1) / cfg.hopsPerCycle;
    return std::max<uint64_t>(cycles, cfg.minLatency);
}

} // namespace nachos
