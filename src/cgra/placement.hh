/**
 * @file
 * Spatial placement of the dataflow graph onto the CGRA grid.
 *
 * The paper maps one operation per function unit on a 32x32
 * homogeneous grid (Figure 3) using prior-work mappers [5],[7]; for
 * timing we only need coordinates to derive operand-network hop
 * counts, so a deterministic level-ordered snake placement suffices:
 * operations at the same dataflow depth sit near each other, producers
 * sit near consumers.
 */

#ifndef NACHOS_CGRA_PLACEMENT_HH
#define NACHOS_CGRA_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "ir/dfg.hh"

namespace nachos {

/** CGRA grid geometry. */
struct GridConfig
{
    uint32_t rows = 32;
    uint32_t cols = 32;

    bool operator==(const GridConfig &) const = default;
};

/** Grid coordinate of a mapped operation. */
struct Coord
{
    uint32_t row = 0;
    uint32_t col = 0;
};

/** Deterministic level-ordered placement. */
class Placement
{
  public:
    Placement() = default;
    Placement(const Region &region, const GridConfig &grid = {});

    /** Place `region` on `grid` afresh, reusing this object's storage. */
    void assign(const Region &region, const GridConfig &grid);

    Coord coordOf(OpId op) const;

    /** Manhattan distance between two ops' function units. */
    uint32_t hops(OpId a, OpId b) const;

    /** Dataflow depth (longest operand path) of an op. */
    uint32_t levelOf(OpId op) const;

    /** Depth of the whole graph (critical path in ops). */
    uint32_t depth() const { return depth_; }

    const GridConfig &grid() const { return grid_; }

  private:
    GridConfig grid_;
    std::vector<Coord> coords_;
    std::vector<uint32_t> levels_;
    uint32_t depth_ = 0;

    void refine(const Region &region);
};

} // namespace nachos

#endif // NACHOS_CGRA_PLACEMENT_HH
