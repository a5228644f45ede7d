/**
 * @file
 * Cycle-accurate (event-driven) simulator of the CGRA accelerator
 * executing an offload region for N invocations, under one of three
 * memory-ordering backends:
 *
 *   OptLsq   — the paper's optimized LSQ baseline (§VIII-C);
 *   NachosSw — compiler-only ordering: MDEs enforced as dataflow
 *              edges, MAY treated as MUST (§V);
 *   Nachos   — NACHOS-SW plus decentralized runtime MAY checks (§VII).
 *
 * The simulator owns the dataflow firing machinery (operand arrivals
 * over the mesh network, FU latencies, memory hierarchy); backends own
 * only the question "when may this memory op access memory, and does
 * it need to?". All backends share one functional memory so ordering
 * violations surface as value/image divergence (tested).
 *
 * Invocations execute back-to-back and drain fully (the offload path
 * is re-entered like the paper's unrolled hot path; caches stay warm
 * across invocations).
 *
 * Execution engine: the event queue carries only variable-latency
 * traffic — memory performs/completions, backend tokens and forwarded
 * values, per-memory-op readiness notifications. An invocation's seed
 * events form its first wave directly.
 * Pure fixed-latency dataflow never touches it: operand delivery is
 * eager (the producer's completion writes every consumer's arena slot
 * and folds the wire arrival cycle into the consumer's ready clock),
 * and a pure op whose operands are all in fires arithmetically, as a
 * straight-line cascade at completion cycle = max arrival + FU
 * latency (DESIGN.md §15).
 *
 * Events are small typed records dispatched from a CalendarQueue: a
 * ring of per-cycle lists over one node pool, kept per thread, so a
 * warm run allocates no event storage whichever cycles its waves land
 * in. Same-cycle events drain a wave at a time and dispatch in a
 * canonical content order (kind, op, slot, value) — a pure function
 * of event contents, so the dispatch schedule cannot depend on the
 * order handlers scheduled them.
 *
 * Counters: every layer (network and FUs here, the caches and
 * scratchpad, OPT-LSQ, the MAY stations, the NACHOS backend) declares
 * its counters in the run's StatSet when it binds and bumps them by
 * Stat index, and the EnergyModel reads them the same way; no counter
 * name is looked up or allocated per run.
 */

#ifndef NACHOS_CGRA_SIMULATOR_HH
#define NACHOS_CGRA_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cgra/compiled_region.hh"
#include "cgra/function_unit.hh"
#include "cgra/trace.hh"
#include "energy/model.hh"
#include "ir/dfg.hh"
#include "lsq/opt_lsq.hh"
#include "mde/mde.hh"
#include "mem/hierarchy.hh"
#include "mem/hierarchy_pool.hh"
#include "support/event_queue.hh"
#include "support/stats.hh"

namespace nachos {

/** Which ordering scheme runs under the region. */
enum class BackendKind : uint8_t { OptLsq, NachosSw, Nachos };

const char *backendName(BackendKind k);

/** Full simulation configuration. */
struct SimConfig
{
    GridConfig grid;
    NetworkConfig net;
    HierarchyConfig mem;
    LsqConfig lsq;
    EnergyParams energy;
    uint64_t invocations = 100;
    /** NACHOS comparator arbiter width (ablation; paper uses 1). */
    uint32_t nachosComparesPerCycle = 1;
    /** Runtime ST->LD forwarding on confirmed exact conflicts (§VIII). */
    bool nachosRuntimeForwarding = true;
    /** Write a Chrome trace-event JSON of op executions here. */
    std::string traceFile;
    /**
     * Record every committed memory op into SimResult::memCommits, in
     * functional commit order (the order data motion hit memory). The
     * differential fuzzer checks ordering invariants against it.
     */
    bool recordMemTrace = false;
};

/** One committed memory operation (recordMemTrace only). */
struct MemCommit
{
    uint32_t op = 0;
    uint32_t invocation = 0;
    uint64_t cycle = 0;
    /** Concrete address; meaningful for performed accesses (a
     *  forwarded load may complete before its address resolves). */
    uint64_t addr = 0;
    /** True if a load completed via ST->LD forwarding (no memory
     *  access was performed). */
    bool forwarded = false;
};

/** Simulation outcome. */
struct SimResult
{
    uint64_t cycles = 0; ///< total cycles over all invocations
    double cyclesPerInvocation = 0;
    uint64_t maxMlp = 0;
    double avgMlp = 0;
    /** All event counters (cache, lsq, mde, fu, net). */
    StatSet stats;
    EnergyBreakdown energy;
    /** Order-insensitive digest of every load's observed value. */
    uint64_t loadValueDigest = 0;
    /** Op completing last in the final invocation: the argmax of
     *  (completion cycle, op id), an order-free rule, so event order
     *  and cascade order report the same op (diagnostics). */
    OpId criticalOp = 0;
    /** Final functional-memory image (the run's written bytes). */
    MemImage memImage;
    /** Commit-ordered memory trace (cfg.recordMemTrace only). */
    std::vector<MemCommit> memCommits;

    // ---- firing-plan observability ------------------------------------
    // Kept out of `stats` deliberately: the StatSet, digest, image and
    // commit trace describe the modelled accelerator, while these
    // counters describe the host engine's own work.
    uint64_t planEventsDispatched = 0; ///< events the engine dispatched
    uint64_t planEventsElided = 0;     ///< events eager delivery avoided
};

/**
 * The execution-engine services an ordering backend builds on, which
 * SimCore implements. Backends see only this interface.
 */
class BackendCore
{
  public:
    virtual ~BackendCore() = default;

    /** Counter registry of the run this backend is serving. */
    virtual StatSet &stats() = 0;

    /** Deliver a 1-bit ORDER token to backend.onOrderToken at `cycle`. */
    virtual void scheduleOrderToken(uint64_t cycle, OpId to) = 0;

    /** Deliver a FORWARD value to backend.onForwardValue at `cycle`. */
    virtual void scheduleForwardValue(uint64_t cycle, OpId to,
                                      int64_t value) = 0;

    /**
     * Perform op's memory access at `cycle`: functional data motion
     * now, timed completion later; backend sees memCompleted().
     */
    virtual void performMemAccess(OpId op, uint64_t cycle) = 0;

    /** Complete a load without touching memory (forwarded value). */
    virtual void completeLoadForwarded(OpId op, uint64_t cycle,
                                       int64_t value) = 0;

    /** Operand-network latency between two mapped ops. */
    virtual uint64_t netLatency(OpId from, OpId to) const = 0;

    /** Count a 1-bit ORDER token traversal (energy). */
    virtual void countOrderToken(OpId from, OpId to) = 0;

    /** Count a FORWARD value traversal (energy). */
    virtual void countForward(OpId from, OpId to) = 0;

    /** Data value a store will write (valid once fully ready). */
    virtual int64_t storeData(OpId op) const = 0;
};

/** Strategy interface: memory-ordering policy of the accelerator. */
class OrderingBackend
{
  public:
    explicit OrderingBackend(const Region &region) : region_(region) {}
    virtual ~OrderingBackend() = default;

    void attach(BackendCore &core) { core_ = &core; }

    /** Reset per-invocation state. */
    virtual void beginInvocation(uint64_t inv) = 0;

    /** Op's address operands resolved; `addr` is the concrete address. */
    virtual void memAddrReady(OpId op, uint64_t addr, uint32_t size,
                              uint64_t cycle) = 0;

    /** All operands (stores: including data) resolved. */
    virtual void memFullyReady(OpId op, uint64_t cycle) = 0;

    /** The op's memory action finished at `cycle`. */
    virtual void memCompleted(OpId op, uint64_t cycle) = 0;

    /**
     * Typed event deliveries: fire when a token/value scheduled via
     * BackendCore::scheduleOrderToken / scheduleForwardValue arrives.
     * Backends that schedule them must override; the defaults panic.
     */
    virtual void onOrderToken(OpId op, uint64_t cycle);
    virtual void onForwardValue(OpId op, uint64_t cycle, int64_t value);

  protected:
    const Region &region_;
    BackendCore *core_ = nullptr;
};

/**
 * The sequential dataflow execution engine. The BackendCore overrides
 * are the API ordering backends build on.
 */
class SimCore final : public BackendCore
{
  public:
    /**
     * Bind a run of `compiled`'s region under `backend`. The placement
     * and firing tables are `compiled`'s, read only, so they are shared
     * with every other run of the region on the same grid and network;
     * `cfg.grid` and `cfg.net` must be the ones it was compiled for
     * (fatal otherwise). The memory hierarchy comes from `pool`:
     * hierarchy construction is dominated by filling the LLC way array
     * (~100 µs, mem/hierarchy_pool) — more than a small region's entire
     * simulation — so reset-heavy callers (the fuzzer, the suite
     * runner, benches, nachosd shards) keep a pool alive across
     * simulate() calls. The event queue, wave buffer, op state and
     * operand arena live in storage private to the calling thread and
     * are reused from run to run, so a warm run allocates nothing per
     * invocation, and nothing for them whatever region or lane ran
     * before it on the thread. Both are observably identical to fresh construction
     * (tested). At most one SimCore may be live per thread (asserted)
     * and per pool, and the pool and `compiled` must outlive the core.
     */
    SimCore(const CompiledRegion &compiled, const MdeSet &mdes,
            OrderingBackend &backend, const SimConfig &cfg,
            HierarchyPool &pool);
    /** A core must not outlive the compiled form it reads. */
    SimCore(CompiledRegion &&, const MdeSet &, OrderingBackend &,
            const SimConfig &, HierarchyPool &) = delete;

    SimCore(const SimCore &) = delete;
    SimCore &operator=(const SimCore &) = delete;

    /** Run all invocations; returns the aggregated result. */
    SimResult run();

    // ---- backend services (BackendCore) ------------------------------

    void scheduleOrderToken(uint64_t cycle, OpId to) override;
    void scheduleForwardValue(uint64_t cycle, OpId to,
                              int64_t value) override;
    void performMemAccess(OpId op, uint64_t cycle) override;
    void completeLoadForwarded(OpId op, uint64_t cycle,
                               int64_t value) override;
    uint64_t netLatency(OpId from, OpId to) const override;
    void countOrderToken(OpId from, OpId to) override;
    void countForward(OpId from, OpId to) override;
    int64_t storeData(OpId op) const override;

    /** Concrete address of a mem op in the current invocation. */
    uint64_t memAddr(OpId op) const;

    const Region &region() const { return region_; }
    const MdeSet &mdes() const { return mdes_; }
    StatSet &stats() override { return stats_; }
    uint64_t invocation() const { return invocation_; }

  private:
    /**
     * Typed event record (16 bytes); cycle lives in the queue bucket.
     * The enum order IS the canonical intra-wave dispatch order: a
     * wave sorts on (kind, op, slot, value), a pure function of event
     * contents (nothing provenance- or sequence-derived), so the
     * dispatch schedule cannot depend on which handler scheduled an
     * event first. AddrReady sorting before InputsReady is load-
     * bearing: when both land in one wave the address must resolve
     * before the op is declared fully ready.
     */
    enum class EvKind : uint8_t
    {
        CompleteOp,   ///< op finished (memory/scratchpad); value
        MemDone,      ///< timed memory completion; value
        MemPerform,   ///< deferred performMemAccess
        LoadForward,  ///< deferred completeLoadForwarded; value
        AddrReady,    ///< mem op's address operands all arrived
        InputsReady,  ///< mem op's operands (incl. data) all arrived
        OrderToken,   ///< backend.onOrderToken(op)
        ForwardValue, ///< backend.onForwardValue(op, value)
    };

    struct SimEvent
    {
        int64_t value = 0;
        uint32_t op = 0;
        uint16_t slot = 0;
        EvKind kind = EvKind::InputsReady;
    };

    /** Per-invocation dynamic op state (POD; reset by assignment). */
    struct OpState
    {
        uint32_t pendingAddrInputs = 0;
        uint32_t pendingAllInputs = 0;
        uint64_t readyCycle = 0;     ///< max operand arrival
        uint64_t addrReadyCycle = 0;
        bool addrNotified = false;
        bool completed = false;
        bool performed = false;
        int64_t value = 0;
        uint64_t completeCycle = 0;
        uint64_t addr = 0;
    };

    /** The calling thread's reusable engine storage (simulator.cc). */
    struct Engine;
    /** Hands a claimed Engine back to its thread (does not free it). */
    struct EngineRelease
    {
        void operator()(Engine *engine) const;
    };
    /** This thread's Engine, marked held and rewound for a new run. */
    static Engine *claimThreadEngine();

    const CompiledRegion &compiled_;
    const Region &region_;
    const MdeSet &mdes_;
    OrderingBackend &backend_;
    SimConfig cfg_;
    StatSet stats_;
    /** The run's memory hierarchy (a pool slot). */
    MemoryHierarchy &hierarchy_;
    EnergyModel energyModel_;

    // The thread's Engine, held until the core is destroyed (also when
    // construction throws), and views into it.
    std::unique_ptr<Engine, EngineRelease> engine_;
    CalendarQueue<SimEvent> &events_;
    uint64_t now_ = 0;
    /** Current wave's events (drained, then canonically sorted). */
    std::vector<SimEvent> &waveBuf_;

    std::vector<OpState> &states_;
    /** Operand-value arena: op's slots at tables_.inputOffset[op]. */
    std::vector<int64_t> &inputArena_;
    /** Static firing tables (compiled_'s). */
    const SimTables &tables_;

    uint64_t invocation_ = 0;
    uint64_t invocationStart_ = 0;
    size_t opsRemaining_ = 0;
    uint64_t invocationEnd_ = 0;
    OpId criticalOp_ = 0;
    /** False until the invocation's first completion lands. */
    bool criticalSeen_ = false;

    // MLP accounting.
    uint64_t outstanding_ = 0;
    uint64_t maxOutstanding_ = 0;
    uint64_t mlpLastChange_ = 0;
    uint64_t mlpArea_ = 0;
    uint64_t mlpBusyCycles_ = 0;

    uint64_t loadValueDigest_ = 0;
    std::vector<MemCommit> memCommits_;
    TraceCollector trace_;

    // Firing-plan observability (SimResult::plan* fields).
    uint64_t planEventsDispatched_ = 0;
    uint64_t planEventsElided_ = 0;

    int64_t *inputs(OpId op)
    {
        return inputArena_.data() + tables_.inputOffset[op];
    }
    const int64_t *inputs(OpId op) const
    {
        return inputArena_.data() + tables_.inputOffset[op];
    }
    uint32_t numInputs(OpId op) const { return tables_.numInputs(op); }

    void bindRun();
    void dispatch(const SimEvent &ev);
    uint64_t runInvocation(uint64_t inv, uint64_t start_cycle);
    void seedInvocation(uint64_t start_cycle);
    int64_t evalFireValue(OpId op);
    void fireOp(OpId op, uint64_t cycle);
    void deliverOperand(OpId op, uint32_t slot, uint64_t arrival,
                        int64_t value);
    void opInputsComplete(OpId op, uint64_t cycle);
    void completeAt(OpId op, uint64_t cycle, int64_t value);
    void completeOp(OpId op, uint64_t cycle, int64_t value);
    void deliverToUsers(OpId op, uint64_t cycle, int64_t value);
    void noteAddrReady(OpId op, uint64_t cycle);
    void mlpChange(int delta, uint64_t cycle);
    int64_t liveInValue(OpId op) const;
};

/**
 * The engine entry point: build the backend for `kind` and simulate
 * `compiled`'s region under it, reusing `pool`'s memory hierarchy (see
 * the SimCore constructor). `cfg.grid` and `cfg.net` must match what
 * `compiled` was compiled for (fatal otherwise). Callers that run one
 * region under several backends, LSQ shapes or memory hierarchies
 * compile it once and call this per lane.
 */
SimResult simulate(const CompiledRegion &compiled, const MdeSet &mdes,
                   BackendKind kind, const SimConfig &cfg,
                   HierarchyPool &pool);

/**
 * Compile `region` for `cfg`'s grid and network into storage the
 * calling thread reuses, then simulate it as above. Results are
 * identical to compiling it separately.
 */
SimResult simulate(const Region &region, const MdeSet &mdes,
                   BackendKind kind, const SimConfig &cfg,
                   HierarchyPool &pool);

/**
 * As above, with a memory hierarchy built for this call alone.
 */
SimResult simulate(const Region &region, const MdeSet &mdes,
                   BackendKind kind, const SimConfig &cfg);

} // namespace nachos

#endif // NACHOS_CGRA_SIMULATOR_HH
