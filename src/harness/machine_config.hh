/**
 * @file
 * Machine-parameter overrides carried by a RunRequest — the handle the
 * sweep subsystem (src/sweep) and the serving plane use to vary the
 * simulated machine away from the paper's fixed Figure-3 configuration.
 *
 * Every field uses 0 as "keep the default": an all-zero MachineOverrides
 * is the identity and reproduces today's behavior bit-for-bit. Overrides
 * deliberately cover only the *memory-system* axes the design-space
 * sweeps explore (LSQ geometry, cache geometry, DRAM, operand-network
 * rate, NACHOS comparator width); grid geometry stays fixed.
 *
 * The front half of a run (synthesis, alias pipeline, MDE insertion)
 * never reads these fields — the region cache key stays
 * machine-independent (harness/region_cache.hh) and one cached front
 * end serves every machine point of a sweep.
 */

#ifndef NACHOS_HARNESS_MACHINE_CONFIG_HH
#define NACHOS_HARNESS_MACHINE_CONFIG_HH

#include <cstdint>

#include "cgra/simulator.hh"

namespace nachos {

/** Per-run machine-parameter overrides (0 = keep the default). */
struct MachineOverrides
{
    uint32_t lsqBanks = 0;             ///< LsqConfig::banks
    uint32_t lsqPortsPerBank = 0;      ///< LsqConfig::portsPerBank
    uint64_t l1SizeBytes = 0;          ///< CacheConfig::sizeBytes (L1)
    uint32_t l1Assoc = 0;              ///< CacheConfig::assoc (L1)
    uint32_t l1LineBytes = 0;          ///< CacheConfig::lineBytes (L1)
    uint32_t l1Ports = 0;              ///< CacheConfig::ports (L1)
    uint64_t llcSizeBytes = 0;         ///< CacheConfig::sizeBytes (LLC)
    uint32_t dramLatency = 0;          ///< HierarchyConfig::dramLatency
    uint32_t dramRequestsPerCycle = 0; ///< DRAM issue bandwidth
    uint32_t netHopsPerCycle = 0;      ///< NetworkConfig::hopsPerCycle
    uint32_t nachosComparesPerCycle = 0; ///< comparator arbiter width

    bool operator==(const MachineOverrides &) const = default;

    /** True iff at least one field overrides its default. */
    bool any() const;

    /** Apply every set field onto `sim` (unset fields untouched). */
    void applyTo(SimConfig &sim) const;
};

/**
 * Validate overrides against the machine model's constraints: all set
 * fields positive and within their caps, line sizes powers of two, and
 * the *effective* cache geometries (overrides merged onto defaults)
 * holding at least one set. Returns nullptr when valid, else a static
 * human-readable message — the codec turns it into a typed
 * `bad_machine` error.
 */
const char *validateMachineOverrides(const MachineOverrides &m);

} // namespace nachos

#endif // NACHOS_HARNESS_MACHINE_CONFIG_HH
