/**
 * @file
 * Static per-region simulation tables of SimCore. Everything here is
 * a pure function of (region, placement, network config): operand-arena
 * prefix sums, initial pending-operand counts, invocation-start seed
 * events in program order, and the CSR operand fan-out with cached
 * route hop counts and latencies.
 */

#ifndef NACHOS_CGRA_SIM_TABLES_HH
#define NACHOS_CGRA_SIM_TABLES_HH

#include <cstdint>
#include <vector>

#include "cgra/network.hh"
#include "cgra/placement.hh"
#include "ir/dfg.hh"

namespace nachos {

/** Static dataflow-firing tables of one region (see file comment). */
struct SimTables
{
    /** One precomputed operand-delivery edge (CSR fan-out table). */
    struct FanoutEdge
    {
        uint32_t user = 0;
        uint16_t slot = 0;
        uint16_t hops = 0;
        uint32_t latency = 0;
    };

    /**
     * Invocation-start event, in program order: `addrSeed` fires
     * noteAddrReady (mem op with no address operands), otherwise
     * opInputsComplete (source op with no operands at all). The same
     * op can appear twice, addr seed first.
     */
    struct SeedEvent
    {
        uint32_t op = 0;
        bool addrSeed = false;
    };

    /** Operand-value arena offsets: op's slots at inputOffset[op]. */
    std::vector<uint32_t> inputOffset; ///< numOps + 1 prefix sums
    std::vector<uint32_t> initialPendingAll;
    std::vector<uint32_t> initialPendingAddr;
    std::vector<SeedEvent> seedEvents;
    /** CSR fan-out: producer op's edges with cached route data. */
    std::vector<FanoutEdge> fanoutEdges;
    std::vector<uint32_t> fanoutOffset; ///< numOps + 1

    void build(const Region &region, const Placement &placement,
               const NetworkConfig &net);

    uint32_t
    numInputs(OpId op) const
    {
        return inputOffset[op + 1] - inputOffset[op];
    }

    /** Total operand slots (size of one lane's value arena). */
    uint32_t arenaSize() const { return inputOffset.back(); }
};

} // namespace nachos

#endif // NACHOS_CGRA_SIM_TABLES_HH
