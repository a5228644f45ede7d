#include "cgra/lsq_backend.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

LsqBackend::LsqBackend(const Region &region, const LsqConfig &cfg)
    : OrderingBackend(region), cfg_(cfg)
{
    memIndexOf_.assign(region.numOps(), 0);
    const auto &mem_ops = region.memOps();
    for (uint32_t m = 0; m < mem_ops.size(); ++m)
        memIndexOf_[mem_ops[m]] = m;
}

uint32_t
LsqBackend::idxOf(OpId op) const
{
    return memIndexOf_[op];
}

void
LsqBackend::beginInvocation(uint64_t inv)
{
    (void)inv;
    const uint32_t n =
        static_cast<uint32_t>(region_.memOps().size());
    if (!lsq_) {
        lsq_ = std::make_unique<OptLsq>(cfg_, n, core_->stats());
    } else {
        lsq_->reset();
    }
    dyn_.assign(n, {});
    parked_.resize(n);
    for (std::vector<ParkedLoad> &p : parked_)
        p.clear();
}

void
LsqBackend::memAddrReady(OpId op, uint64_t addr, uint32_t size,
                         uint64_t cycle)
{
    const uint32_t m = idxOf(op);
    const bool is_store = region_.op(op).isStore();
    lsq_->addressReady(m, is_store, addr, size, cycle, allocated_);
    for (const auto &[mi, alloc_cycle] : allocated_)
        onAllocated(mi, alloc_cycle);
}

void
LsqBackend::onAllocated(uint32_t m, uint64_t alloc_cycle)
{
    OpDyn &d = dyn_[m];
    d.allocated = true;
    d.allocCycle = alloc_cycle;
    const OpId op = region_.memOps()[m];
    if (region_.op(op).isLoad()) {
        searchLoad(m);
    } else if (d.fullyReady) {
        // Data arrived before the entry allocated (older ops were
        // address-late); commit now.
        commitStore(m, std::max(d.fullCycle, alloc_cycle));
    }
}

void
LsqBackend::memFullyReady(OpId op, uint64_t cycle)
{
    const uint32_t m = idxOf(op);
    OpDyn &d = dyn_[m];
    d.fullyReady = true;
    d.fullCycle = cycle;
    if (region_.op(op).isLoad()) {
        // Loads act at allocation; nothing extra to do (a load's
        // full-readiness coincides with its address readiness).
        return;
    }
    if (d.allocated)
        commitStore(m, std::max(cycle, d.allocCycle));
}

void
LsqBackend::searchLoad(uint32_t m)
{
    const OpId op = region_.memOps()[m];
    const LoadSearchResult dec =
        lsq_->loadSearch(m, dyn_[m].allocCycle);
    finishLoadDecision(op, dec);
}

void
LsqBackend::finishLoadDecision(OpId load, const LoadSearchResult &dec)
{
    const uint32_t m = idxOf(load);
    switch (dec.kind) {
      case LoadSearchResult::Kind::ToCache:
        lsq_->loadPerformAt(m, dec.cycle);
        core_->performMemAccess(load, dec.cycle);
        resumeCommits();
        return;
      case LoadSearchResult::Kind::ForwardFrom: {
        const uint32_t s = dec.store;
        // A forwarding load never reads memory: it cannot block any
        // younger store's commit.
        lsq_->loadElided(m);
        if (lsq_->storeHasData(s)) {
            const OpId store_op = region_.memOps()[s];
            const uint64_t when =
                std::max(dec.cycle, lsq_->storeDataCycle(s) + 1);
            core_->completeLoadForwarded(load, when,
                                         core_->storeData(store_op));
        } else {
            parked_[s].push_back({load, dec.cycle, true});
        }
        resumeCommits();
        return;
      }
      case LoadSearchResult::Kind::WaitCommit:
        waitOrPerformLoad(load, dec.cycle);
        return;
    }
}

/**
 * A partially-overlapped load reads the cache only after EVERY older
 * overlapping store committed. The CAM's youngest conflictor is not
 * enough with multiple banks: a line-spanning older store homed in a
 * different bank commits independently of the youngest one. Park on
 * the youngest uncommitted conflictor and re-evaluate at each commit
 * until only the committed-floor remains.
 */
void
LsqBackend::waitOrPerformLoad(OpId load, uint64_t ready)
{
    const uint32_t m = idxOf(load);
    const LoadWaitStatus st = lsq_->loadWaitStatus(m);
    if (st.blockingStore != LoadWaitStatus::kNone) {
        parked_[st.blockingStore].push_back({load, ready, false});
        return;
    }
    const uint64_t when = std::max(ready, st.commitFloor);
    lsq_->loadPerformAt(m, when);
    core_->performMemAccess(load, when);
    resumeCommits();
}

void
LsqBackend::commitStore(uint32_t m, uint64_t data_cycle)
{
    OptLsq::Grants &committed = leaseBatch();
    lsq_->storeDataArrived(m, data_cycle, committed);
    // Loads forwarding from this store only need the data, which now
    // exists; loads waiting on commits are released per cascade entry.
    releaseForwardWaiters(m);
    drainCommits(committed);
}

/** The commit buffer of the next drain nesting level. */
OptLsq::Grants &
LsqBackend::leaseBatch()
{
    if (batchDepth_ == batches_.size())
        batches_.emplace_back();
    return batches_[batchDepth_++];
}

void
LsqBackend::resumeCommits()
{
    OptLsq::Grants &batch = leaseBatch();
    lsq_->resumeCommits(batch);
    drainCommits(batch);
}

/** Perform `batch` and the commits it cascades into, then return the
 *  batch's nesting level. */
void
LsqBackend::drainCommits(OptLsq::Grants &batch)
{
    while (!batch.empty()) {
        for (const auto &[s, commit] : batch) {
            core_->performMemAccess(region_.memOps()[s], commit);
            releaseCommitWaiters(s);
        }
        lsq_->resumeCommits(batch);
    }
    --batchDepth_;
}

void
LsqBackend::releaseForwardWaiters(uint32_t store_m)
{
    auto &parked = parked_[store_m];
    const OpId store_op = region_.memOps()[store_m];
    for (auto it = parked.begin(); it != parked.end();) {
        if (!it->wantsForward) {
            ++it;
            continue;
        }
        const uint64_t when = std::max(
            it->searchDone, lsq_->storeDataCycle(store_m) + 1);
        core_->completeLoadForwarded(it->load, when,
                                     core_->storeData(store_op));
        it = parked.erase(it);
    }
}

void
LsqBackend::releaseCommitWaiters(uint32_t store_m)
{
    // A committed store has its data, so its forward waiters left when
    // the data arrived, and no load parks on it again (loads park only
    // on stores without data or uncommitted ones). The re-evaluations
    // below may park loads on other stores and cascade further commits,
    // but never touch this list.
    auto &parked = parked_[store_m];
    for (size_t i = 0; i < parked.size(); ++i) {
        const ParkedLoad w = parked[i];
        NACHOS_ASSERT(!w.wantsForward, "forward waiter on committed ",
                      "store ", store_m);
        waitOrPerformLoad(w.load, w.searchDone);
    }
    parked.clear();
}

void
LsqBackend::memCompleted(OpId op, uint64_t cycle)
{
    (void)cycle;
    const uint32_t m = idxOf(op);
    if (region_.op(op).isStore())
        lsq_->storeDrained(m);
    else
        lsq_->loadDone(m);
}

} // namespace nachos
