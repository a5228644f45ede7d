#include "cgra/sw_backend.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

SwBackend::SwBackend(const Region &region, const MdeSet &mdes)
    : SwBackend(region, mdes, /*may_is_order=*/true)
{}

SwBackend::SwBackend(const Region &region, const MdeSet &mdes,
                     bool may_is_order)
    : OrderingBackend(region), mdeSet_(mdes), mayIsOrder_(may_is_order)
{
    buildInfo();
}

void
SwBackend::buildInfo()
{
    info_.assign(region_.numOps(), {});
    outEdges_.reserve(mdeSet_.edges().size());
    const auto isOrder = [this](const Mde &e) {
        return e.kind == MdeKind::Order ||
               (e.kind == MdeKind::May && mayIsOrder_);
    };
    for (OpId op : region_.memOps()) {
        OpInfo &inf = info_[op];
        for (uint32_t idx : mdeSet_.incoming(op)) {
            const Mde &e = mdeSet_.edge(idx);
            switch (e.kind) {
              case MdeKind::Order:
                ++inf.orderTokensExpected;
                break;
              case MdeKind::May:
                if (mayIsOrder_)
                    ++inf.orderTokensExpected;
                break;
              case MdeKind::Forward:
                NACHOS_ASSERT(!inf.hasForward,
                              "load with two FORWARD sources");
                inf.hasForward = true;
                inf.forwardSource = e.older;
                break;
            }
        }
        inf.outBegin = static_cast<uint32_t>(outEdges_.size());
        for (uint32_t idx : mdeSet_.outgoing(op)) {
            if (isOrder(mdeSet_.edge(idx)))
                outEdges_.push_back(idx);
        }
        inf.outForward = static_cast<uint32_t>(outEdges_.size());
        for (uint32_t idx : mdeSet_.outgoing(op)) {
            if (mdeSet_.edge(idx).kind == MdeKind::Forward)
                outEdges_.push_back(idx);
        }
        inf.outEnd = static_cast<uint32_t>(outEdges_.size());
    }
}

void
SwBackend::beginInvocation(uint64_t inv)
{
    (void)inv;
    dyn_.assign(region_.numOps(), {});
    for (OpId op : region_.memOps())
        dyn_[op].tokensPending = info_[op].orderTokensExpected;
}

void
SwBackend::memAddrReady(OpId op, uint64_t addr, uint32_t size,
                        uint64_t cycle)
{
    // The software-only scheme needs no address-time action.
    (void)op;
    (void)addr;
    (void)size;
    (void)cycle;
}

void
SwBackend::memFullyReady(OpId op, uint64_t cycle)
{
    OpDyn &d = dyn_[op];
    NACHOS_ASSERT(!d.fullyReady, "double fullyReady");
    d.fullyReady = true;
    d.fullCycle = cycle;

    // A store's value departs on its FORWARD edges as soon as the data
    // exists — the memory dependence became a data dependence.
    const Operation &o = region_.op(op);
    if (o.isStore()) {
        const int64_t value = core_->storeData(op);
        const OpInfo &inf = info_[op];
        for (uint32_t i = inf.outForward; i < inf.outEnd; ++i) {
            const Mde &e = mdeSet_.edge(outEdges_[i]);
            const uint64_t arrive =
                cycle + core_->netLatency(e.older, e.younger);
            core_->countForward(e.older, e.younger);
            core_->scheduleForwardValue(arrive, e.younger, value);
        }
    }
    tryIssue(op);
}

void
SwBackend::memCompleted(OpId op, uint64_t cycle)
{
    const OpInfo &inf = info_[op];
    for (uint32_t i = inf.outBegin; i < inf.outForward; ++i) {
        const Mde &e = mdeSet_.edge(outEdges_[i]);
        const uint64_t arrive =
            cycle + core_->netLatency(e.older, e.younger);
        core_->countOrderToken(e.older, e.younger);
        core_->scheduleOrderToken(arrive, e.younger);
    }
}

void
SwBackend::onOrderToken(OpId op, uint64_t cycle)
{
    orderTokenArrived(op, cycle);
}

void
SwBackend::onForwardValue(OpId op, uint64_t cycle, int64_t value)
{
    forwardValueArrived(op, cycle, value);
}

void
SwBackend::orderTokenArrived(OpId op, uint64_t cycle)
{
    OpDyn &d = dyn_[op];
    NACHOS_ASSERT(d.tokensPending > 0, "token underflow at op ", op);
    --d.tokensPending;
    d.gateCycle = std::max(d.gateCycle, cycle);
    tryIssue(op);
}

void
SwBackend::forwardValueArrived(OpId op, uint64_t cycle, int64_t value)
{
    OpDyn &d = dyn_[op];
    NACHOS_ASSERT(!d.fwdArrived, "double forward arrival");
    d.fwdArrived = true;
    d.fwdCycle = cycle;
    d.fwdValue = value;
    tryIssue(op);
}

uint64_t
SwBackend::extraGate(OpId op, bool &blocked) const
{
    (void)op;
    blocked = false;
    return 0;
}

void
SwBackend::tryIssue(OpId op)
{
    OpDyn &d = dyn_[op];
    const OpInfo &inf = info_[op];
    if (d.issued || !d.fullyReady || d.tokensPending > 0)
        return;
    if (inf.hasForward && !d.fwdArrived)
        return;
    bool blocked = false;
    const uint64_t extra = extraGate(op, blocked);
    if (blocked)
        return;

    uint64_t when =
        std::max({d.fullCycle, d.gateCycle, extra,
                  inf.hasForward ? d.fwdCycle : 0});
    d.issued = true;
    if (inf.hasForward) {
        // Forwarded loads never touch the cache.
        core_->completeLoadForwarded(op, when + 1, d.fwdValue);
    } else {
        core_->performMemAccess(op, when);
    }
}

} // namespace nachos
