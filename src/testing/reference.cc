#include "testing/reference.hh"

#include "mem/functional_memory.hh"
#include "support/logging.hh"
#include "support/value_hash.hh"

namespace nachos {
namespace testing {

namespace {

/**
 * Pages above which the oracle's memory is freed after a call instead
 * of kept for the next: a small region's pages (the fuzzer's) are
 * worth reusing, a large or scattered one's (a suite workload's) must
 * not stay resident beside the simulator's own memory.
 */
constexpr size_t kRetainedPages = 16;

} // namespace

ReferenceResult
referenceExecute(const Region &region, uint64_t invocations)
{
    NACHOS_ASSERT(region.finalized(),
                  "reference interpreter needs a finalized region");
    // The thread's memory, reset rather than rebuilt: its pages and
    // written-page list keep their storage from call to call, up to
    // kRetainedPages. The interpreter never re-enters, so no other call
    // is using it.
    thread_local FunctionalMemory mem;
    mem.reset();
    ReferenceResult result;
    std::vector<int64_t> values(region.numOps(), 0);

    for (uint64_t inv = 0; inv < invocations; ++inv) {
        for (const Operation &o : region.ops()) {
            switch (o.kind) {
              case OpKind::Const:
                values[o.id] = o.imm;
                break;
              case OpKind::LiveIn:
                values[o.id] = liveInValueFor(o.id, inv);
                break;
              case OpKind::LiveOut:
                values[o.id] = values[o.operands[0]];
                result.finalLiveOut = values[o.id];
                break;
              case OpKind::Select:
                values[o.id] =
                    o.operands.size() == 3
                        ? (values[o.operands[0]]
                               ? values[o.operands[1]]
                               : values[o.operands[2]])
                        : values[o.operands[0]];
                break;
              case OpKind::Load: {
                const uint64_t addr = region.evalAddr(o.id, inv);
                values[o.id] = mem.read(addr, o.mem->accessSize);
                if (o.mem->disambiguated()) {
                    result.loadValueDigest +=
                        loadDigestTerm(o.id, inv, values[o.id]);
                    result.loads.push_back(
                        {o.id, inv, addr, values[o.id]});
                    ++result.committedMemOps;
                }
                break;
              }
              case OpKind::Store: {
                const uint64_t addr = region.evalAddr(o.id, inv);
                mem.write(addr, o.mem->accessSize,
                          values[o.operands[0]]);
                if (o.mem->disambiguated())
                    ++result.committedMemOps;
                break;
              }
              default:
                values[o.id] = evalCompute(o.kind, values[o.operands[0]],
                                           values[o.operands[1]]);
                break;
            }
        }
    }
    result.memImage = mem.image();
    if (mem.pagesHeld() > kRetainedPages)
        mem = FunctionalMemory();
    return result;
}

} // namespace testing
} // namespace nachos
