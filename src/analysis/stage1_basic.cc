#include "analysis/stage1_basic.hh"

#include <optional>

#include "support/logging.hh"

namespace nachos {

namespace {

/** Floor division for possibly-negative numerators. */
int64_t
floorDiv(int64_t num, int64_t den)
{
    NACHOS_ASSERT(den > 0, "floorDiv needs positive denominator");
    int64_t q = num / den;
    if (num % den != 0 && num < 0)
        --q;
    return q;
}

/**
 * Do intervals [d, d+sa) and [0, sb) intersect? d is the address
 * difference (addrA - addrB).
 */
bool
overlaps(int64_t d, uint32_t sa, uint32_t sb)
{
    return d < static_cast<int64_t>(sb) &&
           d + static_cast<int64_t>(sa) > 0;
}

/**
 * Does there exist an integer t >= 0 with d0 + ct*t landing in the
 * overlap window (-sa, sb)? Models SCEV reasoning about recurrences
 * over the invocation index.
 */
bool
recurrenceMayOverlap(int64_t d0, int64_t ct, uint32_t sa, uint32_t sb)
{
    NACHOS_ASSERT(ct != 0, "zero recurrence step should have canceled");
    if (ct < 0) {
        // Mirror the problem: -d(t) = -d0 + (-ct)*t with window
        // (-sb, sa).
        return recurrenceMayOverlap(-d0, -ct, sb, sa);
    }
    // Smallest t with d0 + ct*t > -sa:
    //   t > (-sa - d0) / ct  =>  t_min = floor((-sa - d0)/ct) + 1
    int64_t t_min = floorDiv(-static_cast<int64_t>(sa) - d0, ct) + 1;
    if (t_min < 0)
        t_min = 0;
    return d0 + ct * t_min < static_cast<int64_t>(sb);
}

/** Resolve a pointer param through its provenance chain, if complete. */
std::optional<std::pair<ObjectId, int64_t>>
resolveParamChain(const Region &region, ParamId start)
{
    int64_t offset = 0;
    ParamId cur = start;
    for (int depth = 0; depth < 16; ++depth) {
        const PointerParam &p = region.param(cur);
        if (!p.provenance)
            return std::nullopt;
        offset += p.provenance->offset;
        if (p.provenance->isObject)
            return std::make_pair(ObjectId{p.provenance->sourceId},
                                  offset);
        cur = p.provenance->sourceId;
    }
    return std::nullopt; // pathological chain; give up conservatively
}

} // namespace

ResolvedAddr
resolveAddr(const Region &region, const AddrExpr &expr,
            bool use_provenance)
{
    ResolvedAddr out{expr.base, expr.constOffset, &expr.terms};
    if (!use_provenance || expr.base.kind != BaseKind::Param)
        return out;
    auto resolved = resolveParamChain(region, expr.base.id);
    if (!resolved)
        return out;
    out.base = {BaseKind::Object, resolved->first};
    out.constOffset += resolved->second;
    return out;
}

PairRelation
classifyDiff(const Region &region, int64_t base_object,
             const AddrDiff &diff, uint32_t size_a, uint32_t size_b,
             const ClassifyOptions &opts)
{
    int64_t const_part = diff.constDiff;
    std::optional<int64_t> recurrence_step;
    for (const auto &term : diff.terms) {
        const Symbol &sym = region.symbol(term.sym);
        switch (sym.kind) {
          case SymKind::Invocation:
            if (recurrence_step)
                return PairRelation::May; // several recurrences: give up
            recurrence_step = term.coeff;
            break;
          case SymKind::DimStride: {
            // Stage 4 only: substitute the concrete stride when the
            // symbol belongs to the (shaped) base object.
            bool can_substitute =
                opts.useShapes && base_object >= 0 &&
                sym.object == static_cast<ObjectId>(base_object) &&
                !region.object(sym.object).shape.empty();
            if (!can_substitute)
                return PairRelation::May;
            const_part +=
                term.coeff * static_cast<int64_t>(sym.strideBytes);
            break;
          }
          case SymKind::Opaque:
            return PairRelation::May; // data-dependent: undecidable
        }
    }

    if (recurrence_step) {
        return recurrenceMayOverlap(const_part, *recurrence_step, size_a,
                                    size_b)
                   ? PairRelation::May
                   : PairRelation::No;
    }

    if (!overlaps(const_part, size_a, size_b))
        return PairRelation::No;
    if (const_part == 0 && size_a == size_b)
        return PairRelation::MustExact;
    return PairRelation::MustPartial;
}

namespace {

/**
 * classifyPair over addresses already resolved for `opts`; a same-base
 * difference is taken into `diff`.
 */
PairRelation
classifyResolved(const Region &region, const Operation &oa,
                 const Operation &ob, const ResolvedAddr &ea,
                 const ResolvedAddr &eb, const ClassifyOptions &opts,
                 AddrDiff &diff)
{
    NACHOS_ASSERT(oa.isMem() && ob.isMem() &&
                      oa.mem->disambiguated() && ob.mem->disambiguated(),
                  "classifyPair needs disambiguated memory ops");

    // TBAA-style strict aliasing: accesses of different scalar types
    // cannot overlap (the region opts in explicitly).
    if (region.strictAliasing() && oa.dtype != ob.dtype &&
        oa.dtype != DataType::Ptr && ob.dtype != DataType::Ptr) {
        return PairRelation::No;
    }

    // A restrict-qualified param is asserted disjoint from every
    // OTHER base (accesses through the same param still compare).
    auto restrict_param = [&](const BaseRef &ref) {
        return ref.kind == BaseKind::Param &&
               region.param(ref.id).isRestrict;
    };
    if (!(ea.base == eb.base) &&
        (restrict_param(ea.base) || restrict_param(eb.base))) {
        return PairRelation::No;
    }

    // Same base (object, param, or identical opaque pointer): reason
    // about the symbolic offset difference.
    if (ea.base == eb.base) {
        int64_t base_obj = ea.base.kind == BaseKind::Object
                               ? static_cast<int64_t>(ea.base.id)
                               : -1;
        diff.constDiff = ea.constOffset - eb.constOffset;
        subtractTerms(*ea.terms, *eb.terms, diff.terms);
        return classifyDiff(region, base_obj, diff, oa.mem->accessSize,
                            ob.mem->accessSize, opts);
    }

    // Distinct known allocations never overlap.
    if (ea.base.kind == BaseKind::Object &&
        eb.base.kind == BaseKind::Object) {
        return PairRelation::No;
    }

    // A non-escaping object cannot be reached through an unknown
    // pointer (param or opaque).
    auto shielded = [&](const BaseRef &known, const BaseRef &other) {
        return known.kind == BaseKind::Object &&
               other.kind != BaseKind::Object &&
               !region.object(known.id).escapes;
    };
    if (shielded(ea.base, eb.base) || shielded(eb.base, ea.base))
        return PairRelation::No;

    // Anything else — distinct params, param vs escaping object,
    // distinct opaque pointers — is beyond compile-time knowledge.
    return PairRelation::May;
}

} // namespace

PairRelation
classifyPair(const Region &region, OpId a, OpId b,
             const ClassifyOptions &opts)
{
    const Operation &oa = region.op(a);
    const Operation &ob = region.op(b);
    NACHOS_ASSERT(oa.isMem() && ob.isMem(),
                  "classifyPair needs disambiguated memory ops");
    AddrDiff diff;
    return classifyResolved(
        region, oa, ob,
        resolveAddr(region, oa.mem->addr, opts.useProvenance),
        resolveAddr(region, ob.mem->addr, opts.useProvenance), opts,
        diff);
}

PairClassifier::PairClassifier(const Region &region,
                               const AliasMatrix &matrix,
                               const ClassifyOptions &opts)
    : region_(region), matrix_(matrix), opts_(opts)
{
    resolved_.reserve(matrix.numMemOps());
    for (uint32_t i = 0; i < matrix.numMemOps(); ++i) {
        resolved_.push_back(resolveAddr(
            region, region.op(matrix.opOf(i)).mem->addr,
            opts.useProvenance));
    }
}

PairRelation
PairClassifier::classify(uint32_t i, uint32_t j)
{
    return classifyResolved(region_, region_.op(matrix_.opOf(i)),
                            region_.op(matrix_.opOf(j)), resolved_[i],
                            resolved_[j], opts_, diff_);
}

AliasMatrix
runStage1(const Region &region)
{
    AliasMatrix matrix(region);
    const size_t n = matrix.numMemOps();
    PairClassifier classifier(region, matrix,
                              ClassifyOptions{}); // function-local only
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = i + 1; j < n; ++j)
            matrix.setRelation(i, j, classifier.classify(i, j));
    }
    return matrix;
}

} // namespace nachos
