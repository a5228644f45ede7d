#include <gtest/gtest.h>

#include "analysis/pipeline.hh"
#include "ir/builder.hh"
#include "support/random.hh"

namespace nachos {
namespace {

/** A mixed region exercising all four stages. */
Region
mixedRegion()
{
    RegionBuilder b("mixed");
    ObjectId a = b.object("A", 1 << 16);
    ObjectId c = b.object("C", 1 << 16);
    ObjectId m2 = b.object2d("M", 64, 64, DataType::F64);
    ParamId p = b.pointerParam("p", a);
    ParamId q = b.pointerParam("q", c);
    b.paramProvenance(p, a);
    b.paramProvenance(q, c);

    OpId v = b.constant(1);
    b.store(b.at(a, 0), v);              // 0: A[0]
    b.load(b.at(a, 0));                  // 1: A[0]   MUST(0,1) fwd
    b.store(b.atParam(p, 128), v);       // 2: p->A   stage2 NO vs q
    b.load(b.atParam(q, 128));           // 3: q->C
    b.store(b.at2d(m2, 0, 1), v, 8);     // 4: M[0][1] stage4
    b.load(b.at2d(m2, 1, 1), 8);         // 5: M[1][1] stage4
    return b.build();
}

TEST(Pipeline, FullPipelineResolvesEverything)
{
    Region r = mixedRegion();
    AliasAnalysisResult res = runAliasPipeline(r);

    // Stage 1 leaves several MAYs.
    EXPECT_GT(res.afterStage1.all.may, 0u);
    // Stage 2 resolves the param pair.
    EXPECT_GT(res.stage2.toNo, 0u);
    // Stage 4 resolves the 2-D pairs.
    EXPECT_GT(res.stage4.toNo, 0u);
    // Finally no MAY remains in this fully-analyzable region.
    EXPECT_EQ(res.final().all.may, 0u);
}

TEST(Pipeline, BaselineCompilerSkipsStages2And4)
{
    Region r = mixedRegion();
    AliasAnalysisResult res =
        runAliasPipeline(r, PipelineConfig::baselineCompiler());
    EXPECT_EQ(res.stage2.examined, 0u);
    EXPECT_EQ(res.stage4.examined, 0u);
    // MAYs persist without the advanced stages.
    EXPECT_GT(res.final().all.may, 0u);
}

TEST(Pipeline, Stage3OffEnforcesEverything)
{
    RegionBuilder b;
    ObjectId a = b.object("A", 4096);
    OpId ld = b.load(b.at(a, 0));
    OpId x = b.iadd(ld, ld);
    b.store(b.at(a, 0), x);
    Region r = b.build();

    PipelineConfig cfg;
    cfg.stage3 = false;
    AliasAnalysisResult res = runAliasPipeline(r, cfg);
    EXPECT_TRUE(res.matrix.enforced(0, 1));

    AliasAnalysisResult res2 = runAliasPipeline(r);
    EXPECT_FALSE(res2.matrix.enforced(0, 1));
}

TEST(Pipeline, SnapshotsAreMonotoneInMay)
{
    Region r = mixedRegion();
    AliasAnalysisResult res = runAliasPipeline(r);
    EXPECT_LE(res.afterStage2.all.may, res.afterStage1.all.may);
    EXPECT_LE(res.afterStage4.all.may, res.afterStage3.all.may);
}

/** Per-pair count through the public accessors, one filter at a time. */
PairCounts
referenceCounts(const AliasMatrix &m, bool enforced_only)
{
    PairCounts c;
    const uint32_t n = static_cast<uint32_t>(m.numMemOps());
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = i + 1; j < n; ++j) {
            if (!m.relevant(i, j) || (enforced_only && !m.enforced(i, j)))
                continue;
            switch (m.label(i, j)) {
              case AliasLabel::No: ++c.no; break;
              case AliasLabel::May: ++c.may; break;
              case AliasLabel::Must: ++c.must; break;
            }
        }
    }
    return c;
}

void
expectSameCounts(const PairCounts &got, const PairCounts &want)
{
    EXPECT_EQ(got.no, want.no);
    EXPECT_EQ(got.may, want.may);
    EXPECT_EQ(got.must, want.must);
}

TEST(Pipeline, SnapshotsMatchPerPairCounts)
{
    Region r = mixedRegion();
    AliasMatrix m = runAliasPipeline(r).matrix;
    // Vary enforcement so the two filters disagree on some pairs.
    const uint32_t n = static_cast<uint32_t>(m.numMemOps());
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t j = i + 1; j < n; ++j)
            m.setEnforced(i, j, (i + j) % 3 != 0);
    PairCounts all;
    PairCounts enforced;
    m.countPairs(all, enforced);
    expectSameCounts(all, referenceCounts(m, false));
    expectSameCounts(enforced, referenceCounts(m, true));
    expectSameCounts(m.counts(), all);
    EXPECT_LT(enforced.total(), all.total());

    const AliasAnalysisResult res = runAliasPipeline(r);
    expectSameCounts(res.final().all, referenceCounts(res.matrix, false));
    expectSameCounts(res.final().enforced,
                     referenceCounts(res.matrix, true));
}

TEST(Pipeline, SoundnessNoViolationsOnMixedRegion)
{
    Region r = mixedRegion();
    AliasAnalysisResult res = runAliasPipeline(r);
    EXPECT_EQ(countSoundnessViolations(r, res.matrix, 64), 0u);
}

/**
 * Property sweep: random regions with varied address patterns must
 * never produce an unsound NO label at any stage configuration.
 */
class PipelineSoundness : public ::testing::TestWithParam<uint64_t>
{};

Region
randomRegion(uint64_t seed)
{
    Rng rng(seed);
    RegionBuilder b("rand" + std::to_string(seed));
    const int n_objects = static_cast<int>(rng.range(1, 4));
    std::vector<ObjectId> objs;
    for (int i = 0; i < n_objects; ++i)
        objs.push_back(
            b.object("o" + std::to_string(i), 1 << 14));
    ObjectId m2 = b.object2d("m2", 32, 16, DataType::F64);
    std::vector<ParamId> params;
    for (int i = 0; i < 2; ++i) {
        ObjectId target = objs[rng.below(objs.size())];
        ParamId p =
            b.pointerParam("p" + std::to_string(i), target,
                           rng.range(0, 16) * 8);
        if (rng.chance(0.5))
            b.paramProvenance(p, target,
                              b.peek().param(p).actualOffset);
        params.push_back(p);
    }

    OpId v = b.constant(7);
    OpId idx_load = b.load(b.at(objs[0], 0));
    SymbolId osym = b.opaqueSym("i", idx_load, 64, 8, 0, seed);

    const int n_mem = static_cast<int>(rng.range(4, 14));
    for (int i = 0; i < n_mem; ++i) {
        AddrExpr e;
        switch (rng.below(5)) {
          case 0:
            e = b.at(objs[rng.below(objs.size())],
                     rng.range(0, 32) * 8);
            break;
          case 1:
            e = b.stream(objs[rng.below(objs.size())],
                         rng.range(0, 4) * 8, rng.range(0, 16) * 8);
            break;
          case 2:
            e = b.atParam(params[rng.below(params.size())],
                          rng.range(0, 32) * 8);
            break;
          case 3:
            e = b.at2d(m2, rng.range(0, 8), rng.range(0, 15));
            break;
          default:
            e = b.at(objs[rng.below(objs.size())], 0);
            e.terms.push_back({osym, 1});
            e.canonicalize();
            break;
        }
        if (rng.chance(0.5))
            b.store(e, v, 8);
        else
            b.load(e, 8);
    }
    return b.build();
}

TEST_P(PipelineSoundness, NoLabelNeverOverlapsDynamically)
{
    Region r = randomRegion(GetParam());
    for (bool s2 : {false, true}) {
        for (bool s4 : {false, true}) {
            PipelineConfig cfg;
            cfg.stage2 = s2;
            cfg.stage4 = s4;
            AliasAnalysisResult res = runAliasPipeline(r, cfg);
            EXPECT_EQ(countSoundnessViolations(r, res.matrix, 48), 0u)
                << "seed=" << GetParam() << " s2=" << s2
                << " s4=" << s4;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomRegions, PipelineSoundness,
                         ::testing::Range(uint64_t{0}, uint64_t{40}));

} // namespace
} // namespace nachos
