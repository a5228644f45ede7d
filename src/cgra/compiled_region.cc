#include "cgra/compiled_region.hh"

#include "support/logging.hh"

namespace nachos {

CompiledRegion::CompiledRegion(const Region &region, const GridConfig &grid,
                               const NetworkConfig &net)
{
    compile(region, grid, net);
}

void
CompiledRegion::compile(const Region &region, const GridConfig &grid,
                        const NetworkConfig &net)
{
    NACHOS_ASSERT(region.finalized(), "compile a finalized region");
    region_ = &region;
    net_ = net;
    placement_.assign(region, grid);
    tables_.build(region, placement_, net_);
}

const Region &
CompiledRegion::region() const
{
    NACHOS_ASSERT(region_ != nullptr, "region not compiled");
    return *region_;
}

} // namespace nachos
