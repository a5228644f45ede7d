#include "cgra/sim_tables.hh"

namespace nachos {

void
SimTables::build(const Region &region, const Placement &placement,
                 const NetworkConfig &net)
{
    const size_t n = region.numOps();

    // Operand-value arena: one flat buffer addressed by prefix sums.
    inputOffset.assign(n + 1, 0);
    initialPendingAll.assign(n, 0);
    initialPendingAddr.assign(n, 0);
    for (const auto &o : region.ops()) {
        inputOffset[o.id + 1] = static_cast<uint32_t>(o.operands.size());
        initialPendingAll[o.id] =
            static_cast<uint32_t>(o.operands.size());
        initialPendingAddr[o.id] =
            o.isMem() ? static_cast<uint32_t>(o.operands.size() -
                                              o.firstAddrOperand())
                      : 0;
    }
    for (size_t i = 0; i < n; ++i)
        inputOffset[i + 1] += inputOffset[i];

    // Invocation-start events, in program order: a mem op whose address
    // needs no operands fires noteAddrReady, a source op (no operands)
    // fires opInputsComplete — the same op can fire both, in that order.
    seedEvents.clear();
    for (const auto &o : region.ops()) {
        if (o.isMem() && initialPendingAddr[o.id] == 0)
            seedEvents.push_back({o.id, /*addrSeed=*/true});
        if (initialPendingAll[o.id] == 0)
            seedEvents.push_back({o.id, /*addrSeed=*/false});
    }

    // CSR fan-out: per producer, the (user, slot) edges with the static
    // route's hop count and latency cached — replaces the per-delivery
    // users × operand-slots rescan and latency rederivation.
    fanoutEdges.clear();
    fanoutOffset.assign(n + 1, 0);
    for (const auto &o : region.ops()) {
        if (!producesValue(o.kind))
            continue;
        for (OpId user : region.users(o.id)) {
            const Operation &u = region.op(user);
            for (uint32_t slot = 0; slot < u.operands.size(); ++slot) {
                if (u.operands[slot] != o.id)
                    continue;
                const uint32_t hops = placement.hops(o.id, user);
                fanoutEdges.push_back(
                    {user, static_cast<uint16_t>(slot),
                     static_cast<uint16_t>(hops),
                     static_cast<uint32_t>(networkLatency(hops, net))});
                ++fanoutOffset[o.id + 1];
            }
        }
    }
    for (size_t i = 0; i < n; ++i)
        fanoutOffset[i + 1] += fanoutOffset[i];
}

} // namespace nachos
