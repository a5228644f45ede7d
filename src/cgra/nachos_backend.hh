/**
 * @file
 * NACHOS ordering backend: NACHOS-SW plus the decentralized hardware
 * assist (paper §VII). ORDER and FORWARD edges behave exactly as in
 * the software-only scheme; MAY edges are verified at run time by a
 * per-op comparator station, so provably-disjoint operations proceed
 * in parallel while true conflicts degrade to ordering.
 */

#ifndef NACHOS_CGRA_NACHOS_BACKEND_HH
#define NACHOS_CGRA_NACHOS_BACKEND_HH

#include <span>
#include <vector>

#include "cgra/sw_backend.hh"
#include "nachos/may_station.hh"

namespace nachos {

/** Hardware-assisted memory ordering (the paper's headline scheme). */
class NachosBackend : public SwBackend
{
  public:
    NachosBackend(const Region &region, const MdeSet &mdes,
                  uint32_t compares_per_cycle = 1,
                  bool runtime_forwarding = true);

    void beginInvocation(uint64_t inv) override;
    void memAddrReady(OpId op, uint64_t addr, uint32_t size,
                      uint64_t cycle) override;
    void memFullyReady(OpId op, uint64_t cycle) override;
    void memCompleted(OpId op, uint64_t cycle) override;

  private:
    /**
     * Station shape: the younger op it guards and its MAY parents, in
     * order, at stationParents_[parentBegin, parentBegin + numParents).
     */
    struct StationInfo
    {
        OpId younger = 0;
        uint32_t parentBegin = 0;
        uint32_t numParents = 0;
    };

    /** Outgoing MAY edge of a parent: (station index, parent slot). */
    struct MayTarget
    {
        uint32_t station = 0;
        uint32_t slot = 0;
    };

    std::vector<StationInfo> stationInfo_;
    std::vector<OpId> stationParents_;
    /**
     * The stations, built on the first invocation (their counters
     * live in the run's StatSet), over one flat parent-state array and
     * one flat arbiter queue laid out like stationParents_.
     */
    std::vector<MayCheckStation> stations_;
    std::vector<MayCheckStation::ParentState> parentStates_;
    std::vector<uint32_t> pendingCompares_;
    uint32_t comparesPerCycle_ = 1;
    /** Per-op station index (or -1). */
    std::vector<int32_t> stationOf_;
    /** Per-op outgoing MAY targets: op's at
     *  mayTargets_[mayTargetOffset_[op], mayTargetOffset_[op + 1]). */
    std::vector<uint32_t> mayTargetOffset_;
    std::vector<MayTarget> mayTargets_;

    /** The MAY targets of `op`. */
    std::span<const MayTarget>
    targetsOf(OpId op) const
    {
        return std::span<const MayTarget>(mayTargets_)
            .subspan(mayTargetOffset_[op],
                     mayTargetOffset_[op + 1] - mayTargetOffset_[op]);
    }

    bool runtimeForwarding_ = true;

    uint64_t extraGate(OpId op, bool &blocked) const override;
    void tryIssue(OpId op) override;

    /**
     * The §VIII forwarding extension: when the runtime checks prove a
     * load conflicts with exactly ONE in-flight store — an exact
     * match — and no compiler MUST-store edge could interleave,
     * forward the store's value instead of waiting for it to complete
     * ("NACHOS improves over NACHOS-SW by detecting many more
     * opportunities for ST-LD forwarding").
     */
    bool tryRuntimeForward(OpId op);
};

} // namespace nachos

#endif // NACHOS_CGRA_NACHOS_BACKEND_HH
