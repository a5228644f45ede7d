#include "analysis/stage2_interproc.hh"

#include "analysis/stage1_basic.hh"

namespace nachos {

Stage2Stats
runStage2(const Region &region, AliasMatrix &matrix)
{
    Stage2Stats stats;
    const size_t n = matrix.numMemOps();
    ClassifyOptions opts;
    opts.useProvenance = true;

    PairClassifier classifier(region, matrix, opts);
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = i + 1; j < n; ++j) {
            if (matrix.relation(i, j) != PairRelation::May)
                continue;
            ++stats.examined;
            PairRelation refined = classifier.classify(i, j);
            if (refined == matrix.relation(i, j))
                continue;
            matrix.setRelation(i, j, refined);
            if (refined == PairRelation::No)
                ++stats.toNo;
            else if (refined != PairRelation::May)
                ++stats.toMust;
        }
    }
    return stats;
}

} // namespace nachos
