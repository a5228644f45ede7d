// Linked into the untraced binary: no allocation counting.
#include "trace.hh"

namespace perfbench {

uint64_t
allocCount()
{
    return 0;
}

bool
allocCountingEnabled()
{
    return false;
}

} // namespace perfbench
