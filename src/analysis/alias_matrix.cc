#include "analysis/alias_matrix.hh"

#include "support/logging.hh"

namespace nachos {

const char *
aliasLabelName(AliasLabel l)
{
    switch (l) {
      case AliasLabel::No: return "NO";
      case AliasLabel::May: return "MAY";
      case AliasLabel::Must: return "MUST";
    }
    return "?";
}

const char *
pairRelationName(PairRelation r)
{
    switch (r) {
      case PairRelation::No: return "NO";
      case PairRelation::May: return "MAY";
      case PairRelation::MustExact: return "MUST(exact)";
      case PairRelation::MustPartial: return "MUST(partial)";
    }
    return "?";
}

double
PairCounts::fracMay() const
{
    return total() == 0 ? 0.0
                        : static_cast<double>(may) /
                              static_cast<double>(total());
}

double
PairCounts::fracMust() const
{
    return total() == 0 ? 0.0
                        : static_cast<double>(must) /
                              static_cast<double>(total());
}

AliasMatrix::AliasMatrix(const Region &region)
{
    memOps_ = region.memOps();
    n_ = memOps_.size();
    relations_.assign(n_ * (n_ - (n_ ? 1 : 0)) / 2, PairRelation::May);
    enforced_.assign(relations_.size(), 1);
    isStore_.resize(n_);
    for (size_t k = 0; k < n_; ++k)
        isStore_[k] = region.op(memOps_[k]).isStore() ? 1 : 0;
}

size_t
AliasMatrix::pairIndex(uint32_t i, uint32_t j) const
{
    NACHOS_ASSERT(i < j && j < n_, "bad pair (", i, ",", j, ") n=", n_);
    // Row-major over the strict upper triangle: row i starts at
    // i*n - i*(i+1)/2 - i ... easier: offset of (i,j) =
    // sum_{r<i}(n-1-r) + (j-i-1).
    size_t row_start =
        static_cast<size_t>(i) * (2 * n_ - i - 1) / 2;
    return row_start + (j - i - 1);
}

PairRelation
AliasMatrix::relation(uint32_t i, uint32_t j) const
{
    return relations_[pairIndex(i, j)];
}

void
AliasMatrix::setRelation(uint32_t i, uint32_t j, PairRelation r)
{
    relations_[pairIndex(i, j)] = r;
}

AliasLabel
AliasMatrix::label(uint32_t i, uint32_t j) const
{
    return toLabel(relation(i, j));
}

bool
AliasMatrix::enforced(uint32_t i, uint32_t j) const
{
    return enforced_[pairIndex(i, j)] != 0;
}

void
AliasMatrix::setEnforced(uint32_t i, uint32_t j, bool e)
{
    enforced_[pairIndex(i, j)] = e ? 1 : 0;
}

bool
AliasMatrix::relevant(uint32_t i, uint32_t j) const
{
    NACHOS_ASSERT(i < j && j < n_, "bad pair");
    return isStore_[i] || isStore_[j];
}

OpId
AliasMatrix::opOf(uint32_t mem_index) const
{
    NACHOS_ASSERT(mem_index < n_, "memIndex out of range");
    return memOps_[mem_index];
}

PairCounts
AliasMatrix::counts() const
{
    PairCounts all;
    PairCounts enforced;
    countPairs(all, enforced);
    return all;
}

void
AliasMatrix::countPairs(PairCounts &all, PairCounts &enforced) const
{
    all = {};
    enforced = {};
    // Pairs are stored row by row over the upper triangle, so (i, j)
    // in loop order is index idx.
    size_t idx = 0;
    for (uint32_t i = 0; i < n_; ++i) {
        for (uint32_t j = i + 1; j < n_; ++j, ++idx) {
            if (!isStore_[i] && !isStore_[j])
                continue;
            uint64_t PairCounts::*label = &PairCounts::no;
            switch (toLabel(relations_[idx])) {
              case AliasLabel::No: label = &PairCounts::no; break;
              case AliasLabel::May: label = &PairCounts::may; break;
              case AliasLabel::Must: label = &PairCounts::must; break;
            }
            ++(all.*label);
            if (enforced_[idx])
                ++(enforced.*label);
        }
    }
}

} // namespace nachos
