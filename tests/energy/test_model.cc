#include <gtest/gtest.h>

#include "energy/model.hh"

namespace nachos {
namespace {

TEST(EnergyModel, EmptyStatsMeanZeroEnergy)
{
    StatSet stats;
    EnergyModel model;
    EnergyBreakdown b = model.breakdown(stats);
    EXPECT_DOUBLE_EQ(b.total(), 0.0);
    EXPECT_DOUBLE_EQ(b.frac(b.compute), 0.0);
}

TEST(EnergyModel, ComputeCategorySumsAluAndNetwork)
{
    StatSet stats;
    stats.counter("fu.intOps").inc(10);
    stats.counter("fu.fpOps").inc(2);
    stats.counter("net.transfers").inc(5);
    EnergyParams p;
    EnergyModel model(p);
    EnergyBreakdown b = model.breakdown(stats);
    EXPECT_DOUBLE_EQ(b.compute, 10 * p.aluInt + 2 * p.aluFp +
                                    5 * p.networkPerLink);
    EXPECT_DOUBLE_EQ(b.total(), b.compute);
}

TEST(EnergyModel, MdeCategoryUsesPaperCosts)
{
    StatSet stats;
    stats.counter("mde.mayChecks").inc(4);
    stats.counter("mde.orderTokens").inc(8);
    stats.counter("mde.forwards").inc(1);
    EnergyModel model;
    EnergyBreakdown b = model.breakdown(stats);
    // Paper Figure 3: MAY 500 fJ, MUST 250 fJ.
    EXPECT_DOUBLE_EQ(b.mde, 4 * 500.0 + 8 * 250.0 + 1 * 500.0);
}

TEST(EnergyModel, LsqSplitsBloomAndCam)
{
    StatSet stats;
    stats.counter("lsq.bloomProbes").inc(10);
    stats.counter("lsq.camLoads").inc(2);
    stats.counter("lsq.camStores").inc(1);
    stats.counter("lsq.allocs").inc(10);
    EnergyParams p;
    EnergyModel model(p);
    EnergyBreakdown b = model.breakdown(stats);
    EXPECT_DOUBLE_EQ(b.lsqBloom, 10 * p.lsqBloom);
    EXPECT_DOUBLE_EQ(b.lsqCam, 2 * p.lsqCamLoad + 1 * p.lsqCamStore +
                                   10 * p.lsqAlloc);
    EXPECT_DOUBLE_EQ(b.lsq(), b.lsqBloom + b.lsqCam);
}

TEST(EnergyModel, AppendixPerOpCostIs3000fJ)
{
    // The appendix prices the optimized LSQ at 3000 fJ per memory op;
    // our always-paid split (alloc + bloom) must add up to that.
    EnergyParams p;
    EXPECT_DOUBLE_EQ(p.lsqAlloc + p.lsqBloom, 3000.0);
}

TEST(EnergyModel, L1IncludesScratchpad)
{
    StatSet stats;
    stats.counter("l1.reads").inc(3);
    stats.counter("l1.writes").inc(2);
    stats.counter("scratchpad.reads").inc(4);
    EnergyParams p;
    EnergyModel model(p);
    EnergyBreakdown b = model.breakdown(stats);
    EXPECT_DOUBLE_EQ(b.l1, 3 * p.l1Read + 2 * p.l1Write +
                               4 * p.scratchpadAccess);
}

TEST(EnergyModel, FractionsSumToOne)
{
    StatSet stats;
    stats.counter("fu.intOps").inc(7);
    stats.counter("mde.mayChecks").inc(3);
    stats.counter("lsq.bloomProbes").inc(2);
    stats.counter("l1.reads").inc(5);
    EnergyModel model;
    EnergyBreakdown b = model.breakdown(stats);
    double sum = b.frac(b.compute) + b.frac(b.mde) +
                 b.frac(b.lsqBloom) + b.frac(b.lsqCam) + b.frac(b.l1);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(EnergyModel, DescribeBreakdownMentionsCategories)
{
    StatSet stats;
    stats.counter("fu.intOps").inc(1);
    EnergyModel model;
    std::string s = describeBreakdown(model.breakdown(stats));
    EXPECT_NE(s.find("compute"), std::string::npos);
    EXPECT_NE(s.find("lsq"), std::string::npos);
    EXPECT_NE(s.find("nJ"), std::string::npos);
}

} // namespace
} // namespace nachos
