/**
 * @file
 * nachosd: a long-running experiment server around the harness. It
 * listens on a Unix-domain socket (plus an optional loopback TCP
 * port), speaks the JSON-lines protocol of service/protocol.hh, and
 * executes admitted run requests on a sharded, run-to-completion
 * serving plane — amortizing process setup across many requests
 * instead of paying it per bench invocation.
 *
 * Architecture (one box per thread kind):
 *
 *   accept loop ──> connection readers (1/conn) ──┬─> shard 0 ring
 *                        (conn hashed to a shard) ├─> shard 1 ring
 *                                                 └─> ...
 *   timeout watchdog <── deadline registry         one worker/shard
 *        │                                         (steals from the
 *        │                                          deepest sibling
 *        │                                          when idle)
 *        └── answers `timeout`, workers answer `result`/`error`;
 *            an atomic per-job state machine guarantees exactly one
 *            response per request no matter who wins the race.
 *
 * Each shard owns a dual-class JobQueue (interactive and bulk rings
 * with separate bounds), a HierarchyPool that persists across jobs,
 * and a reusable encode buffer. A worker claims one job at a time,
 * looks its front end (synthesis + alias pipeline + MDEs) up once in
 * a daemon-wide LRU RegionCache, and runs it lane by lane: one pooled
 * simulate() per requested backend. Lanes are the unit of scheduling:
 * between two lanes of a job the worker serves every queued job of
 * its own interactive ring, and once the watchdog has answered the
 * job its remaining lanes are skipped. Results are encoded straight
 * into the reused buffer (protocol appendResultResponse), so the
 * steady-state response path performs no per-request heap
 * allocation.
 *
 * Backpressure: per-class ring capacity bounds admission; a full ring
 * answers `queue_full` immediately. A client that stops reading cannot
 * stall the daemon: a response send that makes no progress for
 * kSendTimeout drops that connection (`conns.sendTimeouts`).
 * Shutdown: drain() stops the accept loop, lets every admitted job
 * finish and flush its response, then closes connections —
 * SIGTERM/SIGINT in the nachosd binary and the `shutdown` request both
 * route here.
 */

#ifndef NACHOS_SERVICE_DAEMON_HH
#define NACHOS_SERVICE_DAEMON_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/region_cache.hh"
#include "service/job_queue.hh"
#include "service/protocol.hh"
#include "support/stats.hh"

namespace nachos {

/** How long one response send may block before the daemon gives up
 *  on the connection (SO_SNDTIMEO on every accepted socket). */
constexpr std::chrono::seconds kSendTimeout{2};

struct DaemonConfig
{
    /** Unix-domain socket path (required). */
    std::string socketPath;
    /** Also listen on loopback TCP when nonzero. */
    uint16_t tcpPort = 0;
    /** Worker threads = shards (one run-to-completion worker each). */
    unsigned workers = 2;
    /** Per-shard interactive ring capacity (admission control). */
    size_t queueCapacity = 64;
    /** Per-shard bulk ring capacity. */
    size_t bulkQueueCapacity = 256;
    /** Resident (region, analysis, mdes) cache entries; 0 disables. */
    size_t regionCacheEntries = 64;
    /** Deadline applied to jobs that do not set one; 0 = none. */
    uint64_t defaultTimeoutMillis = 0;
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);

    /** Drains if still running. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind sockets and spawn the accept loop, shard workers, and
     * watchdog. False (with *error filled) on socket setup failure.
     */
    bool start(std::string *error = nullptr);

    /**
     * Ask the daemon to stop (signal handler / `shutdown` request).
     * Thread-safe and idempotent; returns immediately. The thread
     * sitting in waitUntilStopRequested() performs the actual drain.
     */
    void requestStop();

    /** Block until requestStop() is called. */
    void waitUntilStopRequested();

    bool stopRequested() const;

    /**
     * Graceful shutdown: stop accepting, answer everything already
     * admitted, then tear down threads and sockets. Idempotent.
     */
    void drain();

    /** JSON snapshot of all daemon metrics (the `metrics` payload). */
    JsonValue metricsSnapshot() const;

    const DaemonConfig &config() const { return config_; }

  private:
    /** Per-connection shared state; the last owner closes the fd. */
    struct Connection
    {
        Connection(int connFd, uint32_t shardIndex, Daemon &owner)
            : fd(connFd), shard(shardIndex), daemon(owner)
        {}
        ~Connection();

        /** Serialized, best-effort line write (MSG_NOSIGNAL). */
        void sendLine(const std::string &line);

        /**
         * As above for a prebuilt buffer that already ends in \n. A
         * send that times out (the peer stopped reading) shuts the
         * socket down and marks the connection dead; every later send
         * returns at once.
         */
        void sendBytes(std::string_view bytes);

        /** Wake a reader blocked in recv (drain path). */
        void shutdownSocket();

        int fd;
        uint32_t shard; ///< ring this connection's jobs land in
        Daemon &daemon;
        std::mutex writeMutex;
        bool dead = false; ///< a send timed out (under writeMutex)
        std::mutex jobsMutex;
        /** Live jobs by client request id (for cancel/duplicate). */
        std::map<uint64_t, std::weak_ptr<Job>> jobs;
    };

    /** What one job's lanes produced. */
    struct JobResult
    {
        std::shared_ptr<const RegionCacheEntry> entry;
        std::optional<SimResult> lsq;
        std::optional<SimResult> sw;
        std::optional<SimResult> nachos;
        StageTimes times;
    };

    /** One slice of the serving plane: ring + worker + pool. */
    struct Shard
    {
        Shard(size_t interactiveCapacity, size_t bulkCapacity)
            : queue(interactiveCapacity, bulkCapacity)
        {}

        JobQueue queue;
        HierarchyPool pool; ///< reused by every lane the shard runs
        /** Response line. A job encodes only after its last lane, and
         *  one served between those lanes finishes first. */
        std::string encode;
        std::jthread worker;
        mutable std::mutex statsMutex;
        StatSet stats; ///< completed/latency/batch counters
    };

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);
    void handleLine(const std::shared_ptr<Connection> &conn,
                    std::string_view line, JsonValue &reqTree);
    void handleRun(const std::shared_ptr<Connection> &conn,
                   Request &req);
    void handleCancel(const std::shared_ptr<Connection> &conn,
                      const Request &req);
    void shardLoop(uint32_t index);
    /** Run a claimed job and answer it; serve the interactive ring
     *  between its lanes iff `interruptible` (never for a job served
     *  there). */
    void executeJob(Shard &shard, Job &job, bool interruptible);
    /** Claim and finish every queued job of the shard's own
     *  interactive ring (called between the lanes of a job). */
    void serveInteractive(Shard &shard);
    void completeMember(Shard &shard, Job &job, const JobResult &result);
    void failMember(Shard &shard, Job &job, const std::string &message);
    void watchdogLoop(std::stop_token st);
    void registerDeadline(std::shared_ptr<Job> job);
    void finishJob(); ///< outstanding-- and wake drain()

    void sendTo(const std::shared_ptr<Connection> &conn,
                const JsonValue &v);
    void bump(const char *name, uint64_t n = 1);

    DaemonConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;
    RegionCache cache_;

    int listenUnixFd_ = -1;
    int listenTcpFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::jthread acceptThread_;
    std::jthread watchdogThread_;

    std::mutex connsMutex_;
    std::vector<std::jthread> connThreads_;
    std::vector<std::weak_ptr<Connection>> conns_;

    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> drained_{false};
    std::atomic<uint64_t> activeConns_{0};
    std::atomic<uint64_t> connCounter_{0}; ///< shard assignment
    /** Jobs admitted but not yet finally disposed of. */
    std::atomic<uint64_t> outstanding_{0};

    mutable std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;

    std::mutex idleMutex_;
    std::condition_variable idleCv_;

    std::mutex watchdogMutex_;
    std::condition_variable_any watchdogCv_;
    std::vector<std::shared_ptr<Job>> deadlineJobs_;

    mutable std::mutex statsMutex_;
    StatSet stats_; ///< admission-side counters (accepted, conns, ...)
};

} // namespace nachos

#endif // NACHOS_SERVICE_DAEMON_HH
