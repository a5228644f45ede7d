/**
 * @file
 * A region compiled for one machine: the op placement (with its
 * wire-length refinement) and the static firing tables (cgra/sim_tables)
 * for one (region, GridConfig, NetworkConfig).
 *
 * The paper's CGRA is configured once per offload region — op
 * placement, static operand routes, MDE wiring — and then re-entered
 * invocation after invocation. CompiledRegion is that configuration:
 * built once, then read by every simulate() of the region on that grid
 * and network, whatever the backend, LSQ shape, memory hierarchy or
 * invocation count. The fuzzer's six lanes, the suite runner's three
 * backends and a nachosd job's lanes each share one (DESIGN.md §15.3).
 *
 * simulate() only reads it, so any number of threads may simulate one
 * CompiledRegion concurrently. It refers to its region, which must
 * outlive it and stay unmodified.
 */

#ifndef NACHOS_CGRA_COMPILED_REGION_HH
#define NACHOS_CGRA_COMPILED_REGION_HH

#include <cstdint>

#include "cgra/network.hh"
#include "cgra/placement.hh"
#include "cgra/sim_tables.hh"
#include "ir/dfg.hh"

namespace nachos {

/** Placement + firing tables of one region on one machine. */
class CompiledRegion
{
  public:
    /** Empty; compile() before use. */
    CompiledRegion() = default;

    explicit CompiledRegion(const Region &region,
                            const GridConfig &grid = {},
                            const NetworkConfig &net = {});

    CompiledRegion(const CompiledRegion &) = delete;
    CompiledRegion &operator=(const CompiledRegion &) = delete;

    /**
     * (Re)compile `region` for `grid` and `net`, reusing this object's
     * storage. No simulation may be reading it meanwhile.
     */
    void compile(const Region &region, const GridConfig &grid,
                 const NetworkConfig &net);

    const Region &region() const;
    const GridConfig &grid() const { return placement_.grid(); }
    const NetworkConfig &net() const { return net_; }
    const Placement &placement() const { return placement_; }
    const SimTables &tables() const { return tables_; }

    /** Operand-network cycles between two mapped ops. */
    uint64_t
    latency(OpId from, OpId to) const
    {
        return networkLatency(placement_.hops(from, to), net_);
    }

  private:
    const Region *region_ = nullptr;
    NetworkConfig net_;
    Placement placement_;
    SimTables tables_;
};

} // namespace nachos

#endif // NACHOS_CGRA_COMPILED_REGION_HH
