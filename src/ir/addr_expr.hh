/**
 * @file
 * Symbolic address expressions for memory operations.
 *
 * An AddrExpr is what the compiler statically knows about the address of
 * a load or store:
 *
 *     addr = base + sum_k(coeff_k * sym_k) + constOffset
 *
 * where `base` names an object, a pointer parameter, or an opaque
 * pointer value, and each symbol is one of:
 *   - Invocation: the region invocation index (SCEV-style recurrence);
 *   - DimStride:  a symbolic array-dimension stride, known only to the
 *                 Stage-4 polyhedral analysis via the object's shape;
 *   - Opaque:     a data-dependent value (e.g., an index loaded from
 *                 memory) the compiler can never bound.
 *
 * The same expression doubles as the ground-truth address generator: the
 * simulator evaluates it with concrete symbol values per invocation.
 */

#ifndef NACHOS_IR_ADDR_EXPR_HH
#define NACHOS_IR_ADDR_EXPR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/mem_object.hh"

namespace nachos {

using SymbolId = uint32_t;
using OpId = uint32_t;

/** What kind of pointer anchors an address expression. */
enum class BaseKind : uint8_t { Object, Param, Opaque };

/** Reference to the base of an address expression. */
struct BaseRef
{
    BaseKind kind = BaseKind::Object;
    /** ObjectId, ParamId, or the OpId producing the opaque pointer. */
    uint32_t id = 0;

    bool
    operator==(const BaseRef &other) const
    {
        return kind == other.kind && id == other.id;
    }
};

/** Classes of address-expression symbols. */
enum class SymKind : uint8_t { Invocation, DimStride, Opaque };

/**
 * A symbol in the region's symbol table. DimStride symbols carry the
 * object/dimension they represent plus the concrete stride value (in
 * bytes). Opaque symbols carry a deterministic value-generator spec so
 * ground-truth addresses are reproducible.
 */
struct Symbol
{
    SymbolId id = 0;
    SymKind kind = SymKind::Invocation;
    std::string name;

    /** DimStride: object whose dimension this is. */
    ObjectId object = 0;
    /** DimStride: dimension index (0 = outermost). */
    uint32_t dim = 0;
    /** DimStride: concrete stride in bytes (ground truth + Stage 4). */
    uint64_t strideBytes = 0;

    /** Opaque: seed of the deterministic value stream. */
    uint64_t opaqueSeed = 0;
    /** Opaque: values are (hash % modulus) * scale + bias. */
    uint64_t opaqueModulus = 1;
    uint64_t opaqueScale = 1;
    int64_t opaqueBias = 0;
    /** Opaque: OpId of the producing operation (for data dependence). */
    OpId producer = 0;
};

/** One affine term: coeff * symbol. */
struct AffineTerm
{
    SymbolId sym = 0;
    int64_t coeff = 0;
};

/** A full symbolic address expression. */
struct AddrExpr
{
    BaseRef base;
    int64_t constOffset = 0;
    /** Sorted by symbol id; no zero coefficients (see canonicalize()). */
    std::vector<AffineTerm> terms;

    /** Sort terms and drop zero coefficients (merge duplicates). */
    void canonicalize();

    /** Coefficient of the given symbol (0 if absent). */
    int64_t coeffOf(SymbolId sym) const;

    /** True if expression contains a symbol of the given kind. */
    bool hasSymbolOfKind(SymKind kind,
                         const std::vector<Symbol> &symtab) const;
};

/**
 * Difference of two address expressions with the same base:
 * remaining terms plus constant. Used by the alias stages.
 */
struct AddrDiff
{
    int64_t constDiff = 0;
    std::vector<AffineTerm> terms; // canonical, non-zero coeffs

    bool isConstant() const { return terms.empty(); }
};

/** Compute a - b (bases must match; asserted). */
AddrDiff subtractExprs(const AddrExpr &a, const AddrExpr &b);

/**
 * The term part of a - b over two canonical term lists, written into
 * `out` (cleared first, so a reused buffer keeps its capacity).
 */
void subtractTerms(const std::vector<AffineTerm> &a,
                   const std::vector<AffineTerm> &b,
                   std::vector<AffineTerm> &out);

/** Deterministic opaque-symbol value for an invocation. */
int64_t opaqueValue(const Symbol &sym, uint64_t invocation);

} // namespace nachos

#endif // NACHOS_IR_ADDR_EXPR_HH
