// Linked into the traced binary only: referencing alloc_hook pulls in
// its counting operator new, so the untraced binary pays nothing.
#include "support/alloc_hook.hh"
#include "trace.hh"

namespace perfbench {

uint64_t
allocCount()
{
    return nachos::threadAllocCount();
}

bool
allocCountingEnabled()
{
    return true;
}

} // namespace perfbench
