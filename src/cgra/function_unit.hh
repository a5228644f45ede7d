/**
 * @file
 * Function-unit timing and energy classification for the homogeneous
 * CGRA (paper Figure 3: INT 500 fJ, FP 1500 fJ).
 */

#ifndef NACHOS_CGRA_FUNCTION_UNIT_HH
#define NACHOS_CGRA_FUNCTION_UNIT_HH

#include <cstdint>

#include "ir/operation.hh"
#include "support/stats.hh"

namespace nachos {

/** Execution latency of a compute operation in cycles. */
uint32_t fuLatency(OpKind kind);

/**
 * Account the energy event for executing one compute op in `stats`
 * (fu.intOps / fu.fpOps, declared by the caller).
 */
inline void
countFuExecution(OpKind kind, StatSet &stats)
{
    if (kind == OpKind::Const || kind == OpKind::LiveIn ||
        kind == OpKind::LiveOut) {
        return; // free: immediates and region boundary latches
    }
    stats.add(isFloatKind(kind) ? Stat::FuFpOps : Stat::FuIntOps);
}

} // namespace nachos

#endif // NACHOS_CGRA_FUNCTION_UNIT_HH
