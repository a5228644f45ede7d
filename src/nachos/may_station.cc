#include "nachos/may_station.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

MayCheckStation::MayCheckStation(std::span<ParentState> parents,
                                 std::span<uint32_t> pending,
                                 StatSet &stats,
                                 uint32_t compares_per_cycle)
    : parents_(parents), pending_(pending), stats_(&stats),
      comparesPerCycle_(compares_per_cycle)
{
    for (Stat s : {Stat::MdeMayChecks, Stat::NachosChecksClear,
                   Stat::NachosChecksConflict})
        stats.declare(s);
    NACHOS_ASSERT(comparesPerCycle_ >= 1, "need at least one comparator");
    NACHOS_ASSERT(pending_.size() == parents_.size(),
                  "arbiter queue must hold every parent");
    reset();
}

void
MayCheckStation::reset()
{
    std::fill(parents_.begin(), parents_.end(), ParentState{});
    numPending_ = 0;
    ownReady_ = false;
    ownAddr_ = 0;
    ownSize_ = 0;
    ownCycle_ = 0;
    comparatorSlot_ = 0;
    comparesDone_ = 0;
}

void
MayCheckStation::ownAddressReady(uint64_t addr, uint32_t size,
                                 uint64_t cycle)
{
    NACHOS_ASSERT(!ownReady_, "own address set twice");
    ownReady_ = true;
    ownAddr_ = addr;
    ownSize_ = size;
    ownCycle_ = cycle;
    runComparisons();
}

void
MayCheckStation::parentAddressArrived(uint32_t parent, uint64_t addr,
                                      uint32_t size, uint64_t cycle)
{
    NACHOS_ASSERT(parent < numParents(), "parent index out of range");
    ParentState &p = parents_[parent];
    NACHOS_ASSERT(!p.addrArrived, "parent address arrived twice");
    p.addrArrived = true;
    p.addr = addr;
    p.size = size;
    p.addrCycle = cycle;
    pending_[numPending_++] = parent;
    runComparisons();
}

void
MayCheckStation::parentCompleted(uint32_t parent, uint64_t cycle)
{
    NACHOS_ASSERT(parent < numParents(), "parent index out of range");
    ParentState &p = parents_[parent];
    NACHOS_ASSERT(!p.completed, "parent completed twice");
    p.completed = true;
    p.completeCycle = cycle;
    if (p.compared && p.conflict && !p.bitSet) {
        // Conflict resolved by the parent finishing: the bit sets no
        // earlier than both the comparison and the completion token.
        p.bitSet = std::max(cycle, p.compareDoneCycle);
    }
}

void
MayCheckStation::tryCompare(uint32_t parent)
{
    ParentState &p = parents_[parent];
    NACHOS_ASSERT(ownReady_ && p.addrArrived && !p.compared,
                  "comparison prerequisites violated");
    // Arbiter: comparesPerCycle_ comparisons per cycle (1 in the
    // real design), modeled as a slot queue.
    const uint64_t earliest = std::max(p.addrCycle, ownCycle_);
    uint64_t want = earliest * comparesPerCycle_;
    if (comparatorSlot_ < want)
        comparatorSlot_ = want;
    const uint64_t start = comparatorSlot_ / comparesPerCycle_;
    ++comparatorSlot_;
    p.compared = true;
    p.compareDoneCycle = start + 1;
    ++comparesDone_;
    stats_->add(Stat::MdeMayChecks);

    const bool overlap = p.addr < ownAddr_ + ownSize_ &&
                         ownAddr_ < p.addr + p.size;
    p.conflict = overlap;
    if (!overlap) {
        p.bitSet = p.compareDoneCycle;
        stats_->add(Stat::NachosChecksClear);
    } else {
        stats_->add(Stat::NachosChecksConflict);
        if (p.completed)
            p.bitSet = std::max(p.compareDoneCycle, p.completeCycle);
    }
}

void
MayCheckStation::runComparisons()
{
    if (!ownReady_)
        return;
    // Deterministic arbitration: by address-arrival cycle, then parent
    // index.
    const auto queue = pending_.first(numPending_);
    std::sort(queue.begin(), queue.end(), [&](uint32_t a, uint32_t b) {
        const auto &pa = parents_[a];
        const auto &pb = parents_[b];
        if (pa.addrCycle != pb.addrCycle)
            return pa.addrCycle < pb.addrCycle;
        return a < b;
    });
    for (uint32_t parent : queue)
        tryCompare(parent);
    numPending_ = 0;
}

std::optional<uint32_t>
MayCheckStation::soleConflict() const
{
    std::optional<uint32_t> sole;
    for (uint32_t p = 0; p < numParents(); ++p) {
        if (!parents_[p].compared || !parents_[p].conflict)
            continue;
        if (sole)
            return std::nullopt;
        sole = p;
    }
    return sole;
}

bool
MayCheckStation::allCompared() const
{
    for (const ParentState &p : parents_) {
        if (!p.compared)
            return false;
    }
    return true;
}

uint64_t
MayCheckStation::lastCompareDoneCycle() const
{
    uint64_t last = 0;
    for (const ParentState &p : parents_) {
        NACHOS_ASSERT(p.compared, "comparisons still outstanding");
        last = std::max(last, p.compareDoneCycle);
    }
    return last;
}

bool
MayCheckStation::exactConflict(uint32_t parent) const
{
    NACHOS_ASSERT(parent < numParents(), "parent index out of range");
    const ParentState &p = parents_[parent];
    return p.compared && p.conflict && p.addr == ownAddr_ &&
           p.size == ownSize_;
}

std::optional<uint64_t>
MayCheckStation::allClearCycle() const
{
    uint64_t latest = 0;
    for (const ParentState &p : parents_) {
        if (!p.bitSet)
            return std::nullopt;
        latest = std::max(latest, *p.bitSet);
    }
    return latest;
}

} // namespace nachos
