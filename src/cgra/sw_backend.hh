/**
 * @file
 * NACHOS-SW ordering backend: the compiler's MDEs are enforced as
 * dataflow edges on the fabric, with MAY treated as MUST (paper §V).
 *
 *  - ORDER and MAY edges: 1-bit ready tokens; the younger op's memory
 *    action waits for every older endpoint's completion token.
 *  - FORWARD edges: the store sends its data value to the load as soon
 *    as the data is computed; the load never accesses the cache.
 *
 * There is no hardware disambiguation of any kind.
 */

#ifndef NACHOS_CGRA_SW_BACKEND_HH
#define NACHOS_CGRA_SW_BACKEND_HH

#include <cstdint>
#include <vector>

#include "cgra/simulator.hh"

namespace nachos {

/** Software-only (compiler-enforced) memory ordering. */
class SwBackend : public OrderingBackend
{
  public:
    SwBackend(const Region &region, const MdeSet &mdes);

  protected:
    /**
     * @param may_is_order treat MAY edges as ORDER tokens (true for
     *        the software-only scheme; the NACHOS backend passes false
     *        and checks MAY edges in hardware instead).
     */
    SwBackend(const Region &region, const MdeSet &mdes,
              bool may_is_order);

  public:

    void beginInvocation(uint64_t inv) override;
    void memAddrReady(OpId op, uint64_t addr, uint32_t size,
                      uint64_t cycle) override;
    void memFullyReady(OpId op, uint64_t cycle) override;
    void memCompleted(OpId op, uint64_t cycle) override;
    void onOrderToken(OpId op, uint64_t cycle) override;
    void onForwardValue(OpId op, uint64_t cycle, int64_t value) override;

  protected:
    /**
     * Static per-op MDE shape (shared with the NACHOS backend). The
     * op's outgoing edge indices sit in outEdges_: the ORDER ones (and
     * MAY here) at [outBegin, outForward), the FORWARD ones at
     * [outForward, outEnd).
     */
    struct OpInfo
    {
        uint32_t orderTokensExpected = 0; ///< incoming ORDER(+MAY here)
        bool hasForward = false;
        OpId forwardSource = 0;
        uint32_t outBegin = 0;
        uint32_t outForward = 0;
        uint32_t outEnd = 0;
    };

    struct OpDyn
    {
        uint32_t tokensPending = 0;
        uint64_t gateCycle = 0; ///< latest token arrival
        bool fullyReady = false;
        uint64_t fullCycle = 0;
        bool fwdArrived = false;
        uint64_t fwdCycle = 0;
        int64_t fwdValue = 0;
        bool issued = false;
    };

    const MdeSet &mdeSet_;
    std::vector<OpInfo> info_;
    /** Outgoing edge indices of every op, grouped per op (CSR). */
    std::vector<uint32_t> outEdges_;
    std::vector<OpDyn> dyn_;

    /** Treat MAY edges as ORDER tokens? (true for SW, false for HW.) */
    const bool mayIsOrder_;

    void buildInfo();
    void orderTokenArrived(OpId op, uint64_t cycle);
    void forwardValueArrived(OpId op, uint64_t cycle, int64_t value);
    virtual void tryIssue(OpId op);
    virtual uint64_t extraGate(OpId op, bool &blocked) const;
};

} // namespace nachos

#endif // NACHOS_CGRA_SW_BACKEND_HH
