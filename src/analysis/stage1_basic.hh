/**
 * @file
 * Stage 1 of NACHOS-SW: intra-path alias classification.
 *
 * Mirrors the LLVM analyses the paper stacks up for its first stage —
 * Basic (distinct allocations, base+offset reasoning), TBAA (optional
 * strict-aliasing type checks), SCEV (affine recurrences over the
 * invocation index), and escape reasoning (a non-escaping object cannot
 * alias an unknown pointer). Stage 1 deliberately does NOT look through
 * pointer-parameter provenance (that is Stage 2) and does NOT know
 * symbolic array-dimension strides (that is Stage 4), mirroring LLVM
 * 3.8's function-local, non-delinearizing behaviour the paper reports.
 *
 * The same classification core (classifyDiff / classifyPair) is reused
 * by Stages 2 and 4 with progressively more information enabled.
 */

#ifndef NACHOS_ANALYSIS_STAGE1_BASIC_HH
#define NACHOS_ANALYSIS_STAGE1_BASIC_HH

#include "analysis/alias_matrix.hh"
#include "ir/dfg.hh"

namespace nachos {

/** Knobs controlling how much information classifyPair may use. */
struct ClassifyOptions
{
    /** Resolve pointer params through provenance (Stage 2). */
    bool useProvenance = false;
    /**
     * Substitute concrete values for DimStride symbols of shaped
     * objects (Stage 4 / polyhedral delinearization).
     */
    bool useShapes = false;
};

/**
 * Classify a difference (a - b) of two same-base address expressions.
 *
 * @param region  the region (symbol table, object shapes)
 * @param base_object  object the base resolves to, or -1 if unknown;
 *                     needed to gate stride substitution
 * @param diff    canonical symbolic difference
 * @param size_a  access footprint of the first op in bytes
 * @param size_b  access footprint of the second op in bytes
 */
PairRelation classifyDiff(const Region &region, int64_t base_object,
                          const AddrDiff &diff, uint32_t size_a,
                          uint32_t size_b, const ClassifyOptions &opts);

/**
 * Classify one pair of memory operations. Both must be disambiguated
 * (non-scratchpad) memory ops of the region.
 */
PairRelation classifyPair(const Region &region, OpId a, OpId b,
                          const ClassifyOptions &opts);

/**
 * An address expression with its base resolved through provenance:
 * resolution moves only the base and the constant, so the terms stay
 * the expression's own (not copied).
 */
struct ResolvedAddr
{
    BaseRef base;
    int64_t constOffset = 0;
    const std::vector<AffineTerm> *terms = nullptr;
};

/**
 * Resolve an address expression's base through provenance if
 * requested. Used by Stages 2 and 4.
 */
ResolvedAddr resolveAddr(const Region &region, const AddrExpr &expr,
                         bool use_provenance);

/**
 * One alias pass's pair classifier over an AliasMatrix's memory ops:
 * each op's address is resolved once up front, and same-base
 * differences are taken into one reused buffer, so classifying a pair
 * copies no expression and, once warm, allocates nothing. Results
 * equal classifyPair's.
 */
class PairClassifier
{
  public:
    PairClassifier(const Region &region, const AliasMatrix &matrix,
                   const ClassifyOptions &opts);

    /** classifyPair of the matrix's memory ops i and j. */
    PairRelation classify(uint32_t i, uint32_t j);

  private:
    const Region &region_;
    const AliasMatrix &matrix_;
    ClassifyOptions opts_;
    std::vector<ResolvedAddr> resolved_; ///< per matrix index
    AddrDiff diff_;                  ///< reused difference buffer
};

/**
 * Run Stage 1 over a region: classify every memory-op pair with
 * function-local information only.
 */
AliasMatrix runStage1(const Region &region);

} // namespace nachos

#endif // NACHOS_ANALYSIS_STAGE1_BASIC_HH
