#include <gtest/gtest.h>

#include "cgra/compiled_region.hh"
#include "cgra/network.hh"
#include "cgra/placement.hh"
#include "cgra/simulator.hh"
#include "ir/builder.hh"
#include "mde/mde.hh"

namespace nachos {
namespace {

Region
chainRegion(int length)
{
    RegionBuilder b("chain");
    OpId v = b.liveIn();
    for (int i = 0; i < length; ++i)
        v = b.iadd(v, v);
    b.liveOut(v);
    return b.build();
}

TEST(Placement, LevelsFollowDataflowDepth)
{
    Region r = chainRegion(5);
    Placement p(r);
    EXPECT_EQ(p.levelOf(0), 0u);
    EXPECT_EQ(p.levelOf(1), 1u);
    EXPECT_EQ(p.levelOf(5), 5u);
    EXPECT_EQ(p.depth(), 7u); // livein + 5 adds + liveout
}

TEST(Placement, ConsecutiveChainOpsStayLocal)
{
    Region r = chainRegion(10);
    Placement p(r);
    for (OpId op = 1; op < 10; ++op)
        EXPECT_LE(p.hops(op, op + 1), 4u);
}

TEST(Placement, DistinctCellsUpToGridCapacity)
{
    Region r = chainRegion(20);
    Placement p(r, {8, 8});
    for (OpId a = 0; a < r.numOps(); ++a) {
        for (OpId b = a + 1; b < r.numOps(); ++b) {
            if (b - a < 64) {
                EXPECT_GT(p.hops(a, b), 0u)
                    << "ops " << a << "," << b << " share a cell";
            }
        }
    }
}

TEST(Placement, WrapsWhenRegionExceedsGrid)
{
    Region r = chainRegion(40);
    Placement p(r, {4, 4}); // 16 cells < 42 ops
    // No panic; coordinates stay in range.
    for (OpId op = 0; op < r.numOps(); ++op) {
        Coord c = p.coordOf(op);
        EXPECT_LT(c.row, 4u);
        EXPECT_LT(c.col, 4u);
    }
}

TEST(Network, LatencyScalesWithDistance)
{
    Region r = chainRegion(40);
    NetworkConfig cfg;
    const CompiledRegion compiled(r, {}, cfg);
    // Adjacent ops: minimum latency.
    EXPECT_EQ(compiled.latency(1, 2), cfg.minLatency);
    // Distant ops: more cycles.
    uint64_t far = compiled.latency(0, 39);
    EXPECT_GE(far, compiled.latency(0, 5));
    EXPECT_EQ(networkLatency(9, {4, 1}), 3u);
    EXPECT_EQ(networkLatency(0, {4, 2}), 2u);
}

TEST(Network, TransferCountsHops)
{
    // Every delivered operand is one transfer over its route's hops.
    Region r = chainRegion(4);
    SimConfig cfg;
    cfg.invocations = 1;
    const SimResult res =
        simulate(r, MdeSet(r), BackendKind::NachosSw, cfg);
    const Placement p(r);
    uint64_t transfers = 0;
    uint64_t hops = 0;
    for (const Operation &o : r.ops()) {
        for (OpId src : o.operands) {
            ++transfers;
            hops += p.hops(src, o.id);
        }
    }
    EXPECT_EQ(res.stats.get(Stat::NetTransfers), transfers);
    EXPECT_EQ(res.stats.get("net.hops"), hops);
}

} // namespace
} // namespace nachos
