#include "mem/scratchpad.hh"

namespace nachos {

Scratchpad::Scratchpad(uint32_t latency, uint32_t ports, StatSet &stats)
    : latency_(latency), bw_(ports)
{
    rebindStats(stats);
}

} // namespace nachos
