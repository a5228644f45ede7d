#include "harness/machine_config.hh"

namespace nachos {

namespace {

bool
powerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

bool
MachineOverrides::any() const
{
    return *this != MachineOverrides{};
}

void
MachineOverrides::applyTo(SimConfig &sim) const
{
    if (lsqBanks)
        sim.lsq.banks = lsqBanks;
    if (lsqPortsPerBank)
        sim.lsq.portsPerBank = lsqPortsPerBank;
    if (l1SizeBytes)
        sim.mem.l1.sizeBytes = l1SizeBytes;
    if (l1Assoc)
        sim.mem.l1.assoc = l1Assoc;
    if (l1LineBytes)
        sim.mem.l1.lineBytes = l1LineBytes;
    if (l1Ports)
        sim.mem.l1.ports = l1Ports;
    if (llcSizeBytes)
        sim.mem.llc.sizeBytes = llcSizeBytes;
    if (dramLatency)
        sim.mem.dramLatency = dramLatency;
    if (dramRequestsPerCycle)
        sim.mem.dramRequestsPerCycle = dramRequestsPerCycle;
    if (netHopsPerCycle)
        sim.net.hopsPerCycle = netHopsPerCycle;
    if (nachosComparesPerCycle)
        sim.nachosComparesPerCycle = nachosComparesPerCycle;
}

const char *
validateMachineOverrides(const MachineOverrides &m)
{
    // Per-field caps. 0 always means "unset" and is skipped here; the
    // codec rejects an *explicit* zero before it ever reaches a field
    // (a zero would silently decode back to "default", which is the
    // stale-value trap strict decoding exists to prevent).
    if (m.lsqBanks > 64)
        return "lsqBanks exceeds the 64 cap";
    if (m.lsqPortsPerBank > 64)
        return "lsqPortsPerBank exceeds the 64 cap";
    if (m.l1SizeBytes > (1ull << 30))
        return "l1SizeBytes exceeds the 1 GiB cap";
    if (m.l1Assoc > 64)
        return "l1Assoc exceeds the 64 cap";
    if (m.l1LineBytes && !powerOfTwo(m.l1LineBytes))
        return "l1LineBytes must be a power of two";
    if (m.l1LineBytes > 4096)
        return "l1LineBytes exceeds the 4096 cap";
    if (m.l1Ports > 64)
        return "l1Ports exceeds the 64 cap";
    if (m.llcSizeBytes > (1ull << 32))
        return "llcSizeBytes exceeds the 4 GiB cap";
    if (m.dramLatency > 1'000'000)
        return "dramLatency exceeds the 1000000-cycle cap";
    if (m.dramRequestsPerCycle > 1024)
        return "dramRequestsPerCycle exceeds the 1024 cap";
    if (m.netHopsPerCycle > 1024)
        return "netHopsPerCycle exceeds the 1024 cap";
    if (m.nachosComparesPerCycle > 1024)
        return "nachosComparesPerCycle exceeds the 1024 cap";

    // Effective-geometry checks: overrides merge onto the Figure-3
    // defaults, so a size override must stay consistent with whatever
    // associativity/line size ends up in force (and vice versa).
    SimConfig sim;
    m.applyTo(sim);
    const CacheConfig &l1 = sim.mem.l1;
    if (l1.sizeBytes < static_cast<uint64_t>(l1.assoc) * l1.lineBytes)
        return "effective L1 geometry has zero sets "
               "(sizeBytes < assoc * lineBytes)";
    if (l1.sizeBytes % (static_cast<uint64_t>(l1.assoc) * l1.lineBytes))
        return "effective L1 sizeBytes is not a multiple of "
               "assoc * lineBytes";
    const CacheConfig &llc = sim.mem.llc;
    if (llc.sizeBytes <
        static_cast<uint64_t>(llc.assoc) * llc.lineBytes)
        return "effective LLC geometry has zero sets "
               "(sizeBytes < assoc * lineBytes)";
    if (llc.sizeBytes %
        (static_cast<uint64_t>(llc.assoc) * llc.lineBytes))
        return "effective LLC sizeBytes is not a multiple of "
               "assoc * lineBytes";
    return nullptr;
}

} // namespace nachos
