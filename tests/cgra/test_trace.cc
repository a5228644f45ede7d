#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "analysis/pipeline.hh"
#include "cgra/simulator.hh"
#include "cgra/trace.hh"
#include "ir/builder.hh"
#include "mde/inserter.hh"
#include "workloads/benchmark_info.hh"
#include "workloads/synthesizer.hh"

namespace nachos {
namespace {

TEST(TraceCollector, DisabledDropsEvents)
{
    TraceCollector t(false);
    t.record({"x", "compute", 0, 1, 0});
    EXPECT_EQ(t.size(), 0u);
}

TEST(TraceCollector, JsonShapeValid)
{
    TraceCollector t(true);
    t.record({"load#3", "memory", 10, 5, 2});
    t.record({"iadd#4", "compute", 12, 0, 1});
    std::string json = t.toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("load#3"), std::string::npos);
    // Zero durations are clamped to 1 for visibility.
    EXPECT_NE(json.find("\"dur\":1"), std::string::npos);
}

TEST(TraceIntegration, SimulatorWritesTraceFile)
{
    RegionBuilder b("traced");
    ObjectId a = b.object("A", 4096);
    OpId v = b.liveIn();
    b.store(b.at(a, 0), v);
    OpId ld = b.load(b.at(a, 0));
    b.liveOut(ld);
    Region r = b.build();

    AliasAnalysisResult analysis = runAliasPipeline(r);
    MdeSet mdes = insertMdes(r, analysis.matrix);
    SimConfig cfg;
    cfg.invocations = 2;
    cfg.traceFile = "test_trace_out.json";
    simulate(r, mdes, BackendKind::Nachos, cfg);

    std::ifstream in(cfg.traceFile);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("traceEvents"), std::string::npos);
    EXPECT_NE(content.find("store"), std::string::npos);
    EXPECT_NE(content.find("forward"), std::string::npos);
    std::remove(cfg.traceFile.c_str());
}

// Tracing only observes: the traced engine is the engine. 183.equake's
// ~50-op address chains are the longest pure cascades in the suite, so
// any trace-induced change of firing path would show there first.
TEST(TraceIntegration, TracingDoesNotChangeTheSimulation)
{
    const BenchmarkInfo *info = findBenchmark("183.equake");
    ASSERT_NE(info, nullptr);
    const Region r = synthesizeRegion(*info);
    const AliasAnalysisResult analysis = runAliasPipeline(r);
    const MdeSet mdes = insertMdes(r, analysis.matrix);
    for (BackendKind kind : {BackendKind::OptLsq, BackendKind::NachosSw,
                             BackendKind::Nachos}) {
        SCOPED_TRACE(backendName(kind));
        SimConfig cfg;
        cfg.invocations = 4;
        const SimResult plain = simulate(r, mdes, kind, cfg);
        cfg.traceFile = std::string("test_trace_equake_") +
                        backendName(kind) + ".json";
        const SimResult traced = simulate(r, mdes, kind, cfg);
        std::remove(cfg.traceFile.c_str());
        EXPECT_EQ(traced.cycles, plain.cycles);
        EXPECT_EQ(traced.stats.dump(), plain.stats.dump());
        EXPECT_EQ(traced.loadValueDigest, plain.loadValueDigest);
        EXPECT_EQ(traced.memImage, plain.memImage);
        EXPECT_EQ(traced.criticalOp, plain.criticalOp);
    }
}

} // namespace
} // namespace nachos
