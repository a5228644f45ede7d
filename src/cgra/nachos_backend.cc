#include "cgra/nachos_backend.hh"

#include "support/logging.hh"

namespace nachos {

NachosBackend::NachosBackend(const Region &region, const MdeSet &mdes,
                             uint32_t compares_per_cycle,
                             bool runtime_forwarding)
    : SwBackend(region, mdes, /*may_is_order=*/false),
      comparesPerCycle_(compares_per_cycle),
      runtimeForwarding_(runtime_forwarding)
{
    const size_t n = region.numOps();
    stationOf_.assign(n, -1);
    // Counts first (at op + 1), so the prefix sum gives each op's start.
    mayTargetOffset_.assign(n + 1, 0);
    stationParents_.reserve(mdes.counts().may);
    for (OpId op : region.memOps()) {
        const uint32_t begin =
            static_cast<uint32_t>(stationParents_.size());
        for (uint32_t idx : mdes.incoming(op)) {
            const Mde &e = mdes.edge(idx);
            if (e.kind != MdeKind::May)
                continue;
            stationParents_.push_back(e.older);
            ++mayTargetOffset_[e.older + 1];
        }
        const uint32_t count =
            static_cast<uint32_t>(stationParents_.size()) - begin;
        if (count == 0)
            continue;
        stationOf_[op] = static_cast<int32_t>(stationInfo_.size());
        stationInfo_.push_back({op, begin, count});
    }
    for (size_t i = 0; i < n; ++i)
        mayTargetOffset_[i + 1] += mayTargetOffset_[i];

    // Fill in station order, so each parent lists its targets by
    // station, then slot; the offsets serve as cursors meanwhile.
    mayTargets_.resize(stationParents_.size());
    for (uint32_t s = 0; s < stationInfo_.size(); ++s) {
        const StationInfo &info = stationInfo_[s];
        for (uint32_t slot = 0; slot < info.numParents; ++slot) {
            const OpId parent = stationParents_[info.parentBegin + slot];
            mayTargets_[mayTargetOffset_[parent]++] = {s, slot};
        }
    }
    for (size_t i = n; i > 0; --i)
        mayTargetOffset_[i] = mayTargetOffset_[i - 1];
    mayTargetOffset_[0] = 0;
}

void
NachosBackend::beginInvocation(uint64_t inv)
{
    SwBackend::beginInvocation(inv);
    if (runtimeForwarding_)
        core_->stats().declare(Stat::NachosRuntimeForwards);
    if (stations_.empty() && !stationInfo_.empty()) {
        parentStates_.resize(stationParents_.size());
        pendingCompares_.resize(stationParents_.size());
        stations_.reserve(stationInfo_.size());
        for (const StationInfo &info : stationInfo_) {
            stations_.emplace_back(
                std::span(parentStates_)
                    .subspan(info.parentBegin, info.numParents),
                std::span(pendingCompares_)
                    .subspan(info.parentBegin, info.numParents),
                core_->stats(), comparesPerCycle_);
        }
    } else {
        for (MayCheckStation &station : stations_)
            station.reset();
    }
}

void
NachosBackend::memAddrReady(OpId op, uint64_t addr, uint32_t size,
                            uint64_t cycle)
{
    // Own address reaches this op's guard station.
    if (stationOf_[op] >= 0) {
        stations_[stationOf_[op]].ownAddressReady(addr, size, cycle);
        tryIssue(op);
        // Compares may also unblock nothing else: only this op's gate
        // depends on this station.
    }

    // This op's address travels to every station guarding a younger
    // MAY-dependent op (one network transfer + one comparison each:
    // the 500 fJ MAY-edge activations of Figure 3).
    for (const MayTarget &target : targetsOf(op)) {
        const StationInfo &info = stationInfo_[target.station];
        const uint64_t arrive =
            cycle + core_->netLatency(op, info.younger);
        stations_[target.station].parentAddressArrived(target.slot, addr,
                                                       size, arrive);
        tryIssue(info.younger);
    }
}

void
NachosBackend::memFullyReady(OpId op, uint64_t cycle)
{
    SwBackend::memFullyReady(op, cycle);
    // A store's data becoming available can unblock a runtime forward
    // at a younger station.
    if (runtimeForwarding_ && region_.op(op).isStore()) {
        for (const MayTarget &target : targetsOf(op))
            tryIssue(stationInfo_[target.station].younger);
    }
}

void
NachosBackend::memCompleted(OpId op, uint64_t cycle)
{
    SwBackend::memCompleted(op, cycle);
    for (const MayTarget &target : targetsOf(op)) {
        const StationInfo &info = stationInfo_[target.station];
        const uint64_t arrive =
            cycle + core_->netLatency(op, info.younger);
        stations_[target.station].parentCompleted(target.slot, arrive);
        tryIssue(info.younger);
    }
}

void
NachosBackend::tryIssue(OpId op)
{
    if (runtimeForwarding_ && tryRuntimeForward(op))
        return;
    SwBackend::tryIssue(op);
}

bool
NachosBackend::tryRuntimeForward(OpId op)
{
    OpDyn &d = dyn_[op];
    const OpInfo &inf = info_[op];
    if (d.issued || !d.fullyReady || stationOf_[op] < 0)
        return false;
    if (!region_.op(op).isLoad() || inf.hasForward)
        return false;
    // Any ORDER edge into a load comes from a possibly-overlapping
    // store the runtime checks do not cover: forwarding would be
    // stale-prone. (Such tokens also imply tokensPending handling.)
    if (inf.orderTokensExpected > 0)
        return false;

    const MayCheckStation &st = stations_[stationOf_[op]];
    if (!st.allCompared())
        return false;
    const std::optional<uint32_t> conflict = st.soleConflict();
    if (!conflict || !st.exactConflict(*conflict))
        return false;
    const OpId parent =
        stationParents_[stationInfo_[stationOf_[op]].parentBegin +
                        *conflict];
    if (!region_.op(parent).isStore())
        return false;
    if (!dyn_[parent].fullyReady)
        return false; // the store's data is still in flight

    // Every other parent is verified disjoint and the conflicting
    // store covers the whole footprint: its value IS the load result.
    const uint64_t when = std::max(
        {d.fullCycle, st.lastCompareDoneCycle(),
         dyn_[parent].fullCycle + core_->netLatency(parent, op)});
    d.issued = true;
    core_->countForward(parent, op);
    core_->stats().add(Stat::NachosRuntimeForwards);
    core_->completeLoadForwarded(op, when + 1,
                                 core_->storeData(parent));
    return true;
}

uint64_t
NachosBackend::extraGate(OpId op, bool &blocked) const
{
    if (stationOf_[op] < 0) {
        blocked = false;
        return 0;
    }
    const auto clear = stations_[stationOf_[op]].allClearCycle();
    if (!clear) {
        blocked = true;
        return 0;
    }
    blocked = false;
    return *clear;
}

} // namespace nachos
