/**
 * @file
 * OPT-LSQ: the paper's optimized baseline load-store queue for CGRA
 * accelerators (§VIII-C).
 *
 * Characteristics modeled:
 *  - compiler-assigned age IDs (TRIPS-style): entries ALLOCATE in
 *    program order; a memory op allocates only after every older op
 *    has allocated (the in-order-issue constraint the paper blames for
 *    the extra load-to-use latency);
 *  - address partitioning into banks, each with a port limit;
 *  - a counting Bloom filter in front of the CAM: every access probes
 *    the filter, only probe hits pay a CAM search;
 *  - ST->LD forwarding from in-flight stores; partial overlaps stall
 *    the load until the store commits;
 *  - stores commit (write the cache) in program order;
 *  - non-speculative address-based disambiguation: since allocation is
 *    in order and requires a resolved address, every older store's
 *    address is known when a load searches — the LSQ extracts all
 *    address-level MLP without needing squash/replay machinery
 *    (documented as a modeling choice in DESIGN.md).
 *
 * Capacity is modeled optimistically (no structural stalls), matching
 * the paper's "optimistic single-cycle" treatment of OPT-LSQ; the
 * 48-entry/bank figure is used for energy/area discussion only.
 *
 * The class is a passive bookkeeping core driven by the LSQ ordering
 * backend; all times are supplied and returned explicitly so it can be
 * unit-tested without the simulator.
 */

#ifndef NACHOS_LSQ_OPT_LSQ_HH
#define NACHOS_LSQ_OPT_LSQ_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "lsq/bloom.hh"
#include "mem/cache.hh"
#include "support/stats.hh"

namespace nachos {

/** OPT-LSQ configuration (paper Figure 3). */
struct LsqConfig
{
    // The paper evaluates 1-8 banks of 2-port, 48-entry arrays and
    // "optimistically assumes a single cycle latency" for OPT-LSQ
    // checks; we mirror that optimism with enough aggregate port
    // bandwidth that allocation is latency- not bandwidth-bound.
    uint32_t banks = 4;
    uint32_t portsPerBank = 4;
    uint32_t entriesPerBank = 48; ///< informational (optimistic model)
    /** Extra pipeline cycles on allocate + search (load-to-use tax). */
    uint32_t allocLatency = 1;
    uint32_t searchLatency = 1;
    BloomConfig bloom;
};

/** What a load should do after its LSQ search. */
struct LoadSearchResult
{
    enum class Kind : uint8_t {
        ToCache,     ///< no in-flight conflict: access the cache
        ForwardFrom, ///< exact match: take the store's data
        WaitCommit,  ///< partial overlap: wait for the store to commit
    };
    Kind kind = Kind::ToCache;
    /** Conflicting/forwarding store (memIndex), when applicable. */
    uint32_t store = 0;
    /** Cycle at which the decision is available (post search). */
    uint64_t cycle = 0;
};

/**
 * Commit progress of the older overlapping stores a WaitCommit load
 * is ordered behind. The original CAM search latches the full match
 * vector, so re-evaluating it as stores commit costs no extra search.
 */
struct LoadWaitStatus
{
    static constexpr uint32_t kNone = UINT32_MAX;
    /** Youngest older overlapping UNCOMMITTED store, or kNone. */
    uint32_t blockingStore = kNone;
    /** 1 + max commit cycle over older overlapping committed stores:
     *  the earliest cycle a cache read observes all their writes. */
    uint64_t commitFloor = 0;
};

/**
 * One invocation's worth of LSQ state over the region's memory ops
 * (memIndex-addressed). reset() between invocations.
 */
class OptLsq
{
  public:
    /** (memIndex, cycle): an allocation or commit that completed. */
    using Grant = std::pair<uint32_t, uint64_t>;
    /**
     * Caller-owned result buffer: every call that reports grants
     * clears it and fills it, so a caller reusing one buffer
     * allocates nothing once its capacity has grown.
     */
    using Grants = std::vector<Grant>;

    OptLsq(const LsqConfig &cfg, uint32_t num_mem_ops, StatSet &stats);

    /** Begin a fresh invocation. */
    void reset();

    /**
     * Record that op `m`'s address is resolved at `cycle`. Fills
     * `allocated` with the ops whose allocation completed as a result
     * (allocation cascades in program order), with their
     * allocation-done cycles.
     */
    void addressReady(uint32_t m, bool is_store, uint64_t addr,
                      uint32_t size, uint64_t cycle, Grants &allocated);

    /**
     * Load search at `cycle` (must be >= its allocation cycle).
     * Probes the bloom filter, pays CAM energy on a probe hit, and
     * reports forwarding/stall decisions.
     */
    LoadSearchResult loadSearch(uint32_t m, uint64_t cycle);

    /**
     * For a WaitCommit load: which older overlapping store (if any)
     * is still uncommitted, and the commit floor over the committed
     * ones. A load must not read the cache before EVERY older
     * overlapping store committed — with multiple banks the youngest
     * conflicting store's commit does not imply the older ones' (a
     * line-spanning access overlaps a neighboring bank whose queue
     * drains independently), so the caller iterates: wait on the
     * blocking store, re-query, until only the floor remains.
     */
    LoadWaitStatus loadWaitStatus(uint32_t m) const;

    /**
     * Record that store `m` is ready to commit (allocated AND data
     * present) at `cycle`. Stores commit strictly in program order,
     * so this may unblock a cascade of younger stores; fills
     * `committed` with every newly committed store and its commit
     * cycle (bank port arbitration applied).
     */
    void storeDataArrived(uint32_t m, uint64_t cycle, Grants &committed);

    /**
     * Record when load `m` issues its cache read (anti-dependence:
     * younger overlapping stores must not commit before this). May
     * unblock the commit cascade; follow with resumeCommits().
     */
    void loadPerformAt(uint32_t m, uint64_t cycle);

    /** Load `m` forwards and never reads memory (no anti-dependence). */
    void loadElided(uint32_t m);

    /**
     * Re-run the in-order commit cascade after new information
     * (load performs). Fills `committed` with newly committed stores.
     */
    void resumeCommits(Grants &committed);

    /**
     * Store's cache write finished: the entry drains, leaving the
     * bloom filter.
     */
    void storeDrained(uint32_t m);

    /** Load finished (cache response or forward consumed). */
    void loadDone(uint32_t m);

    /** True once storeDataArrived() was called for store m. */
    bool storeHasData(uint32_t m) const;

    /** Data-ready cycle of a store (for forward timing). */
    uint64_t storeDataCycle(uint32_t m) const;

    /** True once store m's commit cycle is assigned. */
    bool storeCommitted(uint32_t m) const;

    /** Commit cycle of a store (for WaitCommit timing); must be set. */
    uint64_t storeCommitCycle(uint32_t m) const;

    /** Allocation cycle of op m (must have allocated). */
    uint64_t allocCycle(uint32_t m) const;

    bool allDrained() const;

  private:
    struct Entry
    {
        bool seen = false; ///< addressReady called
        bool isStore = false;
        uint64_t addr = 0;
        uint32_t size = 0;
        uint64_t addrReadyAt = 0;
        std::optional<uint64_t> alloc;
        std::optional<uint64_t> dataReady;  ///< stores
        std::optional<uint64_t> commit;     ///< stores
        bool drained = false;               ///< stores: left the queue
        bool done = false;                  ///< loads
        std::optional<uint64_t> performAt;  ///< loads: cache-read cycle
        bool elided = false;                ///< loads: forwarded
        /** Stores: older overlapping loads not yet performed/elided
         * (registered once, when the store's data arrives). */
        uint32_t pendingOlderLoads = 0;
        /** Stores: max(performAt + 1) over older overlapping loads. */
        uint64_t loadFloor = 0;
        /** Stores: older overlapping uncommitted stores in OTHER
         * banks. Within a bank the program-order queue serializes
         * commits, but a line-spanning access overlaps the next line's
         * bank, whose queue drains independently — ST->ST order must
         * then be enforced across the banks explicitly. */
        uint32_t pendingOlderStores = 0;
        /** Stores: max(commit + 1) over older cross-bank overlaps. */
        uint64_t storeFloor = 0;
    };

    /**
     * Program-order store queue of one address bank. Stores commit
     * strictly in order within a bank, so "every older same-bank
     * store has committed" reduces to "I am the queue head", and the
     * max over their commit cycles is the (monotone) last grant.
     */
    struct BankQueue
    {
        std::vector<uint32_t> stores; ///< memIndex, program order
        uint32_t head = 0;            ///< first uncommitted store
        uint64_t lastCommit = 0;
        bool anyCommit = false;
    };

    LsqConfig cfg_;
    /** Counts lsq.* (declared at construction). */
    StatSet *stats_;
    std::vector<Entry> entries_;
    std::vector<BandwidthRegulator> bankPorts_;
    std::vector<BankQueue> bankQueues_;
    /** Per-load list of younger stores watching its perform/elide. */
    std::vector<std::vector<uint32_t>> loadWatchers_;
    /** Per-store list of younger cross-bank overlapping stores
     * watching its commit. */
    std::vector<std::vector<uint32_t>> storeWatchers_;
    /** Stores that may have become committable since the last
     * resumeCommits() (re-verified before committing). resumeCommits()
     * runs its min-heap in this buffer, so its capacity is reused. */
    std::vector<uint32_t> commitCandidates_;
    BloomFilter bloom_;
    uint32_t nextToAlloc_ = 0;
    uint64_t lastAllocSlot_ = 0;

    uint32_t bankOf(uint64_t addr) const;
    bool overlaps(const Entry &a, const Entry &b) const;
    void noteCommitCandidate(uint32_t m);
};

} // namespace nachos

#endif // NACHOS_LSQ_OPT_LSQ_HH
