/**
 * @file
 * Static mesh operand network: values travel between function units
 * over pre-routed links, and latency scales with Manhattan distance.
 * Energy is charged per configured route — one per dataflow edge
 * delivered, 600 fJ (paper Figure 3) — as `net.transfers`; raw hop
 * counts are kept as the `net.hops` diagnostic. The simulator counts
 * both per delivered operand from its compiled fan-out table
 * (cgra/sim_tables).
 */

#ifndef NACHOS_CGRA_NETWORK_HH
#define NACHOS_CGRA_NETWORK_HH

#include <cstdint>

namespace nachos {

/** Operand network timing parameters. */
struct NetworkConfig
{
    /** Links traversed per cycle (pipelined mesh). */
    uint32_t hopsPerCycle = 4;
    /** Minimum transfer latency in cycles. */
    uint32_t minLatency = 1;

    bool operator==(const NetworkConfig &) const = default;
};

/** Cycles for a value/token to cross `hops` links under `cfg`. */
uint64_t networkLatency(uint32_t hops, const NetworkConfig &cfg);

} // namespace nachos

#endif // NACHOS_CGRA_NETWORK_HH
