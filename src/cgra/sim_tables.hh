/**
 * @file
 * Static per-region simulation tables of SimCore. Everything here is
 * a pure function of (region, placement, network config): operand-arena
 * prefix sums, initial pending-operand counts, invocation-start seed
 * events in program order, the CSR operand fan-out with cached route
 * hop counts and latencies, and the region's firing plan — the
 * single-consumer chains of fixed-latency pure ops the engine fuses
 * into macro-ops (see DESIGN.md §15).
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

    /**
     * Firing-plan suffix record of a chain head: the precomputed
     * aggregate of the fused chain starting at that op and following
     * `nextInChain` links to its tail. `latency` spans from the
     * trigger operand's arrival cycle to the tail's completion cycle
     * (sum of per-step FU latencies plus interior operand-network
     * edge latencies); the counter fields are the per-op stat/energy
     * increments a macro firing applies in bulk.
     */
    struct ChainSuffix
    {
        uint64_t latency = 0;
        uint32_t tail = 0;
        uint32_t len = 1;          ///< steps, head through tail
        uint32_t intOps = 0;       ///< integer FU executions folded in
        uint32_t fpOps = 0;        ///< FP FU executions folded in
        uint32_t netTransfers = 0; ///< interior chain edges
        uint32_t netHops = 0;      ///< summed interior edge hops
    };

    /** `nextInChain` sentinel: the chain ends at this op. */
    static constexpr uint32_t kChainEnd = 0xffffffffu;

    /**
     * Firing plan: op is a fusable chain step (pure fixed-latency
     * compute — never a memory op, and never latency-free, so a fused
     * tail always completes strictly after its trigger cycle).
     */
    std::vector<uint8_t> chainStep;
    /** Next chain step (op has exactly one fan-out edge and it feeds
     *  a fusable step), else kChainEnd. */
    std::vector<uint32_t> nextInChain;
    /** Operand slot of `nextInChain[op]` the chain value feeds. */
    std::vector<uint16_t> nextChainSlot;
    /** Suffix aggregates; meaningful iff chainStep[op]. */
    std::vector<ChainSuffix> chainSuffix;

    /** Operand-value arena offsets: op's slots at inputOffset[op]. */
    std::vector<uint32_t> inputOffset; ///< numOps + 1 prefix sums
    std::vector<uint32_t> initialPendingAll;
    std::vector<uint32_t> initialPendingAddr;
    std::vector<SeedEvent> seedEvents;
    /** CSR fan-out: producer op's edges with cached route data. */
    std::vector<FanoutEdge> fanoutEdges;
    std::vector<uint32_t> fanoutOffset; ///< numOps + 1

    void build(const Region &region, const Placement &placement,
               const OperandNetwork &net);

    uint32_t
    numInputs(OpId op) const
    {
        return inputOffset[op + 1] - inputOffset[op];
    }

    /** Total operand slots (size of one lane's value arena). */
    uint32_t arenaSize() const { return inputOffset.back(); }
};

/**
 * Evaluate one fused-chain step. The step's operands come from its
 * operand-arena slice except `chainSlot`, which carries the value
 * threaded along the chain (that slot's arena cell is never written
 * in fused mode). Mirrors the engines' opInputsComplete value switch
 * for every kind a chain step can be (memory ops, Const and LiveIn
 * are never chain steps).
 */
inline int64_t
evalChainStep(const Operation &o, const int64_t *in, uint32_t chainSlot,
              int64_t carried)
{
    const auto at = [&](uint32_t j) {
        return j == chainSlot ? carried : in[j];
    };
    switch (o.kind) {
      case OpKind::LiveOut:
        return at(0);
      case OpKind::Select:
        return o.operands.size() == 3 ? (at(0) ? at(1) : at(2)) : at(0);
      default:
        return evalCompute(o.kind, at(0), at(1));
    }
}

} // namespace nachos

#endif // NACHOS_CGRA_SIM_TABLES_HH
