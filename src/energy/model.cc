#include "energy/model.hh"

#include <sstream>

#include "support/table.hh"

namespace nachos {

double
EnergyBreakdown::frac(double category) const
{
    double t = total();
    return t == 0 ? 0.0 : category / t;
}

EnergyBreakdown
EnergyModel::breakdown(const StatSet &stats) const
{
    const EnergyParams &p = params_;
    EnergyBreakdown b;

    b.compute = p.aluInt * stats.get(Stat::FuIntOps) +
                p.aluFp * stats.get(Stat::FuFpOps) +
                p.networkPerLink * stats.get(Stat::NetTransfers);

    b.mde = p.mdeMay * stats.get(Stat::MdeMayChecks) +
            p.mdeMust * stats.get(Stat::MdeOrderTokens) +
            p.mdeForward * stats.get(Stat::MdeForwards);

    b.lsqBloom = p.lsqBloom * stats.get(Stat::LsqBloomProbes);
    b.lsqCam = p.lsqCamLoad * stats.get(Stat::LsqCamLoads) +
               p.lsqCamStore * stats.get(Stat::LsqCamStores) +
               p.lsqAlloc * stats.get(Stat::LsqAllocs) +
               p.lsqForward * stats.get(Stat::LsqForwards);

    b.l1 = p.l1Read * stats.get(Stat::L1Reads) +
           p.l1Write * stats.get(Stat::L1Writes) +
           p.scratchpadAccess * (stats.get(Stat::ScratchpadReads) +
                                 stats.get(Stat::ScratchpadWrites));
    return b;
}

std::string
describeBreakdown(const EnergyBreakdown &b)
{
    std::ostringstream os;
    os << "total " << fmtDouble(b.total() / 1e6, 3) << " nJ"
       << " [compute " << fmtPct(b.frac(b.compute))
       << ", mde " << fmtPct(b.frac(b.mde))
       << ", lsq " << fmtPct(b.frac(b.lsq()))
       << ", l1 " << fmtPct(b.frac(b.l1)) << "]";
    return os.str();
}

} // namespace nachos
