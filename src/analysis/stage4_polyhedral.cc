#include "analysis/stage4_polyhedral.hh"

#include "analysis/stage1_basic.hh"

namespace nachos {

Stage4Stats
runStage4(const Region &region, AliasMatrix &matrix,
          bool use_provenance)
{
    Stage4Stats stats;
    const size_t n = matrix.numMemOps();
    ClassifyOptions opts;
    opts.useProvenance = use_provenance;
    opts.useShapes = true;

    PairClassifier classifier(region, matrix, opts);
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = i + 1; j < n; ++j) {
            if (matrix.relation(i, j) != PairRelation::May)
                continue;
            ++stats.examined;
            PairRelation refined = classifier.classify(i, j);
            if (refined == PairRelation::May)
                continue;
            matrix.setRelation(i, j, refined);
            if (refined == PairRelation::No) {
                matrix.setEnforced(i, j, false);
                ++stats.toNo;
            } else {
                ++stats.toMust;
            }
        }
    }
    return stats;
}

} // namespace nachos
