/**
 * @file
 * Event-based energy accounting in the style of Aladdin: every
 * component bumps its counters in a shared StatSet during simulation;
 * the EnergyModel turns the final counts into an energy breakdown with
 * the categories the paper plots (COMPUTE, MDE, LSQ-BLOOM, LSQ-CAM,
 * L1).
 */

#ifndef NACHOS_ENERGY_MODEL_HH
#define NACHOS_ENERGY_MODEL_HH

#include <string>

#include "energy/params.hh"
#include "support/stats.hh"

namespace nachos {

/** Energy breakdown, femtojoules per category. */
struct EnergyBreakdown
{
    double compute = 0; ///< ALUs + operand network
    double mde = 0;     ///< ORDER/FORWARD/MAY edges + runtime checks
    double lsqBloom = 0;
    double lsqCam = 0;  ///< CAM searches + alloc + forwarding
    double l1 = 0;      ///< L1 + scratchpad access energy

    double
    total() const
    {
        return compute + mde + lsqBloom + lsqCam + l1;
    }

    double lsq() const { return lsqBloom + lsqCam; }

    /** Fraction of total spent in a category. */
    double frac(double category) const;
};

/** Computes breakdowns from a StatSet of event counts. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params = {})
        : params_(params)
    {}

    EnergyBreakdown breakdown(const StatSet &stats) const;

    const EnergyParams &params() const { return params_; }

  private:
    EnergyParams params_;
};

/** One-line human-readable summary. */
std::string describeBreakdown(const EnergyBreakdown &b);

} // namespace nachos

#endif // NACHOS_ENERGY_MODEL_HH
