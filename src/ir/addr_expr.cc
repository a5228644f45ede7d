#include "ir/addr_expr.hh"

#include <algorithm>

#include "support/logging.hh"

namespace nachos {

void
AddrExpr::canonicalize()
{
    std::sort(terms.begin(), terms.end(),
              [](const AffineTerm &a, const AffineTerm &b) {
                  return a.sym < b.sym;
              });
    std::vector<AffineTerm> merged;
    for (const auto &t : terms) {
        if (!merged.empty() && merged.back().sym == t.sym)
            merged.back().coeff += t.coeff;
        else
            merged.push_back(t);
    }
    merged.erase(std::remove_if(merged.begin(), merged.end(),
                                [](const AffineTerm &t) {
                                    return t.coeff == 0;
                                }),
                 merged.end());
    terms = std::move(merged);
}

int64_t
AddrExpr::coeffOf(SymbolId sym) const
{
    for (const auto &t : terms) {
        if (t.sym == sym)
            return t.coeff;
    }
    return 0;
}

bool
AddrExpr::hasSymbolOfKind(SymKind kind,
                          const std::vector<Symbol> &symtab) const
{
    for (const auto &t : terms) {
        NACHOS_ASSERT(t.sym < symtab.size(), "dangling symbol id");
        if (symtab[t.sym].kind == kind)
            return true;
    }
    return false;
}

AddrDiff
subtractExprs(const AddrExpr &a, const AddrExpr &b)
{
    NACHOS_ASSERT(a.base == b.base,
                  "subtractExprs requires identical bases");
    AddrDiff diff;
    diff.constDiff = a.constOffset - b.constOffset;
    subtractTerms(a.terms, b.terms, diff.terms);
    return diff;
}

void
subtractTerms(const std::vector<AffineTerm> &a,
              const std::vector<AffineTerm> &b, std::vector<AffineTerm> &out)
{
    // Merge the two sorted term lists, subtracting coefficients.
    out.clear();
    size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        if (j == b.size() || (i < a.size() && a[i].sym < b[j].sym)) {
            out.push_back(a[i]);
            ++i;
        } else if (i == a.size() || b[j].sym < a[i].sym) {
            out.push_back({b[j].sym, -b[j].coeff});
            ++j;
        } else {
            int64_t c = a[i].coeff - b[j].coeff;
            if (c != 0)
                out.push_back({a[i].sym, c});
            ++i;
            ++j;
        }
    }
}

int64_t
opaqueValue(const Symbol &sym, uint64_t invocation)
{
    NACHOS_ASSERT(sym.kind == SymKind::Opaque,
                  "opaqueValue on non-opaque symbol");
    NACHOS_ASSERT(sym.opaqueModulus > 0, "opaque modulus must be > 0");
    // splitmix64-style mix of (seed, invocation): deterministic and
    // well-dispersed so collision rates track modulus choices.
    uint64_t z = sym.opaqueSeed + 0x9e3779b97f4a7c15ULL * (invocation + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return static_cast<int64_t>(z % sym.opaqueModulus) *
               static_cast<int64_t>(sym.opaqueScale) +
           sym.opaqueBias;
}

} // namespace nachos
