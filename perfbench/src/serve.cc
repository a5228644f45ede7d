/**
 * @file
 * `serve`: a nachosd daemon with its default config and kWorkers
 * workers, driven over the JSON-lines protocol by this one process
 * with two traffic classes at once:
 *
 *   bulk        — shaped like a sweep: one region (183.equake, 100
 *                 invocations, three backends) with MachineOverrides
 *                 cycled over the bench_sweep grid, closed loop with
 *                 kBulkWindow requests outstanding per connection, so
 *                 same-region jobs queue up for coalescing and
 *                 region-cache hits. One connection per worker: the
 *                 daemon assigns connections to shards round-robin, so
 *                 each bulk connection feeds one shard's ring;
 *   interactive — open loop at kInteractiveRps: 164.gzip at one
 *                 invocation, each request timed from its due time.
 *                 Its connection is the third, so it shares a shard
 *                 with the first bulk stream.
 *
 * One thread drives all three connections (poll), within the four
 * hardware threads plus connections the benchmark may load. Responses
 * are only stored while the clock runs and verified afterwards, so
 * checking never delays the open-loop generator. This is the only
 * workload that goes through src/service and harness/region_cache.
 */

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>

#include "analysis/pipeline.hh"
#include "harness/run_json.hh"
#include "mde/inserter.hh"
#include "service/protocol.hh"
#include "workloads.hh"
#include "workloads/synthesizer.hh"

namespace perfbench {

namespace {

using nachos::BackendKind;
using nachos::JsonValue;

constexpr unsigned kWorkers = 2;
constexpr unsigned kBulkWindow = 16;
/** Slow enough that the 64-slot interactive ring (nachosd's default)
 *  absorbs 640 ms of head-of-line blocking before refusing requests;
 *  at 200/s a noisy host came within 2x of that. */
constexpr double kInteractiveRps = 100;
constexpr uint64_t kBulkInvocations = 100;
/** Timed passes of the traced run's direct layer calls. */
constexpr uint32_t kDirectPasses = 5;
/** How long to wait for the last responses once the load stops. */
constexpr double kDrainSeconds = 30;

/** ppoll until `deadline`: >0 ready, 0 timed out, <0 error. */
int
waitReadable(pollfd *fds, nfds_t n, Clock::time_point deadline)
{
    for (;;) {
        const auto left = std::max(Clock::duration::zero(),
                                   deadline - Clock::now());
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(left)
                .count();
        timespec ts{static_cast<time_t>(ns / 1000000000),
                    static_cast<long>(ns % 1000000000)};
        const int ready = ::ppoll(fds, n, &ts, nullptr);
        if (ready < 0 && errno == EINTR)
            continue;
        return ready;
    }
}

/** One connected Unix stream socket with newline framing. */
class LineConn
{
  public:
    explicit LineConn(int fd) : fd_(fd) {}
    ~LineConn() { ::close(fd_); }
    LineConn(const LineConn &) = delete;
    LineConn &operator=(const LineConn &) = delete;

    static std::unique_ptr<LineConn>
    connect(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path)
            return nullptr;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            return nullptr;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd);
            return nullptr;
        }
        return std::make_unique<LineConn>(fd);
    }

    bool
    send(std::string_view bytes)
    {
        while (!bytes.empty()) {
            const ssize_t n =
                ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            bytes.remove_prefix(static_cast<size_t>(n));
        }
        return true;
    }

    int fd() const { return fd_; }

    /** Pop the next buffered complete line; false if there is none. */
    bool
    nextLine(std::string &line)
    {
        const size_t nl = buf_.find('\n', start_);
        if (nl == std::string::npos)
            return false;
        line.assign(buf_, start_, nl - start_);
        start_ = nl + 1;
        if (start_ == buf_.size()) {
            buf_.clear();
            start_ = 0;
        }
        return true;
    }

    /** One read() of whatever is ready; false on EOF or error. */
    bool
    fill()
    {
        char chunk[65536];
        for (;;) {
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<size_t>(n));
            return true;
        }
    }

    /** Next line, waiting no later than `deadline`; false if none. */
    bool
    readLine(std::string &line, Clock::time_point deadline)
    {
        while (!nextLine(line)) {
            pollfd pfd{fd_, POLLIN, 0};
            if (waitReadable(&pfd, 1, deadline) <= 0 || !fill())
                return false;
        }
        return true;
    }

  private:
    int fd_;
    std::string buf_;
    size_t start_ = 0;
};

/** A nachosd child process; stopped and reaped on destruction. */
class DaemonProcess
{
  public:
    DaemonProcess(const std::string &binary, const std::string &socket)
        : socket_(socket)
    {
        ::unlink(socket_.c_str());
        const std::string workers = std::to_string(kWorkers);
        const char *argv[] = {binary.c_str(), "--socket", socket_.c_str(),
                              "--workers",    workers.c_str(), "--quiet",
                              nullptr};
        // Forked while this process is still single-threaded. The
        // daemon gets SIGTERM if the benchmark dies first, so it never
        // outlives the run.
        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            ::execv(binary.c_str(), const_cast<char *const *>(argv));
            ::_exit(127);
        }
    }

    ~DaemonProcess()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            if (waitExit(10) < 0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, nullptr, 0);
            }
        }
        ::unlink(socket_.c_str());
    }

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Connect once the daemon listens; nullptr if it never does. */
    std::unique_ptr<LineConn>
    connect(double timeoutSeconds)
    {
        const Clock::time_point end = after(Clock::now(), timeoutSeconds);
        while (pid_ > 0 && Clock::now() < end) {
            if (auto conn = LineConn::connect(socket_))
                return conn;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        return nullptr;
    }

    /** Exit status once the child exits (-1 on timeout). */
    int
    waitExit(double timeoutSeconds)
    {
        const Clock::time_point end = after(Clock::now(), timeoutSeconds);
        while (pid_ > 0) {
            int status = 0;
            const pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_ || r < 0) {
                pid_ = -1;
                return r > 0 && WIFEXITED(status) ? WEXITSTATUS(status)
                                                  : 128;
            }
            if (Clock::now() >= end)
                return -1;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** A request shape: the wire line around its id, and its answer. */
struct RequestKind
{
    nachos::JobSpec spec;
    std::string prefix; ///< line up to the id
    std::string suffix; ///< line after the id, newline included
    std::string expectedTail; ///< `"outcome":{...}}` of a direct run

    std::string
    line(uint64_t id) const
    {
        return prefix + std::to_string(id) + suffix;
    }

    bool
    matches(const std::string &response) const
    {
        return response.size() >= expectedTail.size() &&
               response.compare(response.size() - expectedTail.size(),
                                expectedTail.size(), expectedTail) == 0;
    }
};

RequestKind
makeKind(nachos::JobSpec spec, bool corrupt)
{
    RequestKind k;
    k.spec = std::move(spec);
    const std::string line =
        nachos::dumpJson(nachos::runRequestEnvelope(0, k.spec));
    const size_t at = line.find("\"id\":0");
    k.prefix = line.substr(0, at + 5);
    k.suffix = line.substr(at + 6) + "\n";
    // The expected answer is a direct runWorkload on the same request.
    const nachos::RunOutcome outcome =
        nachos::runWorkload(*k.spec.info, k.spec.request);
    k.expectedTail =
        "\"outcome\":" +
        nachos::dumpJson(nachos::encodeRunOutcome(*k.spec.info,
                                                  k.spec.request, outcome)) +
        "}";
    if (corrupt) // a checker that cannot fail verifies nothing
        k.expectedTail[k.expectedTail.size() / 2] ^= 1;
    return k;
}

/** The four bulk points (bench_sweep's grid) and the probe. */
std::vector<RequestKind>
makeKinds(const Options &opts)
{
    std::vector<RequestKind> kinds;
    for (uint32_t banks : {1u, 4u}) {
        for (uint64_t l1 : {16384ull, 65536ull}) {
            nachos::JobSpec spec;
            spec.info = nachos::findBenchmark("183.equake");
            spec.klass = nachos::AdmitClass::Bulk;
            spec.request.seed = opts.seed;
            spec.request.invocationsOverride = kBulkInvocations;
            spec.request.machine.lsqBanks = banks;
            spec.request.machine.l1SizeBytes = l1;
            kinds.push_back(makeKind(std::move(spec), false));
        }
    }
    nachos::JobSpec probe;
    probe.info = nachos::findBenchmark("164.gzip");
    probe.klass = nachos::AdmitClass::Interactive;
    probe.request.seed = opts.seed;
    probe.request.invocationsOverride = 1;
    probe.request.runLsq = false;
    probe.request.runSw = false;
    kinds.push_back(makeKind(std::move(probe), opts.injectFault));
    return kinds;
}

/** One request sent while the clock ran. */
struct Sent
{
    uint32_t kind = 0;
    uint32_t conn = 0;
    Clock::time_point due; ///< interactive: when it was due
    Clock::time_point sent;
    Clock::time_point answered;
    std::string response; ///< verified after the timed window
};

/** Everything the timed window produced. */
struct Traffic
{
    std::vector<Sent> sent{1}; ///< indexed by request id (0 unused)
    uint64_t bulkCompletedInWindow = 0;
    std::vector<std::string> failures;
};

/** The request id a response line answers (0 if unreadable). */
uint64_t
responseId(const std::string &line)
{
    const size_t at = line.find("\"id\":");
    if (at == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + at + 5, nullptr, 10);
}

/** Check one stored response against its request kind. */
void
verify(const Sent &s, uint64_t id, const std::vector<RequestKind> &kinds,
       std::vector<std::string> &failures)
{
    const char *cls = kinds[s.kind].spec.klass == nachos::AdmitClass::Bulk
                          ? "bulk"
                          : "interactive";
    if (s.response.empty()) {
        failures.push_back(std::string(cls) + " request " +
                           std::to_string(id) + ": no response");
        return;
    }
    const nachos::JsonParseResult parsed = nachos::parseJson(s.response);
    const JsonValue *type = parsed.ok ? parsed.value.find("type") : nullptr;
    if (!type || !type->isString() || type->str() != "result")
        failures.push_back(std::string(cls) + " request " +
                           std::to_string(id) +
                           ": not a result: " + s.response.substr(0, 200));
    else if (!kinds[s.kind].matches(s.response))
        failures.push_back(std::string(cls) + " request " +
                           std::to_string(id) +
                           ": outcome differs from runWorkload");
}

/**
 * The timed window: kBulkWindow outstanding on each bulk connection,
 * refilled on every answer, and the
 * interactive probe sent at its due times, all from one poll loop.
 */
Traffic
drive(std::vector<LineConn *> bulk, LineConn &inter,
      const std::vector<RequestKind> &kinds, Clock::time_point t0,
      Clock::time_point end)
{
    Traffic t;
    const size_t points = kinds.size() - 1;
    const uint32_t probeKind = static_cast<uint32_t>(points);
    const uint32_t interConn = static_cast<uint32_t>(bulk.size());
    std::vector<LineConn *> conns = bulk;
    conns.push_back(&inter);
    std::vector<uint64_t> perConn(conns.size(), 0);
    uint64_t outstanding = 0;
    // A connection's n-th bulk request asks for grid point n mod 4.
    auto pointOf = [&](uint64_t n) {
        return static_cast<uint32_t>(n % points);
    };

    auto send = [&](uint32_t c, uint32_t kind, Clock::time_point due) {
        const uint64_t id = t.sent.size();
        Sent s;
        s.kind = kind;
        s.conn = c;
        s.due = due;
        s.sent = Clock::now();
        t.sent.push_back(std::move(s));
        ++perConn[c];
        ++outstanding;
        if (!conns[c]->send(kinds[kind].line(id)))
            t.failures.push_back("send failed");
    };
    for (uint32_t c = 0; c < bulk.size(); ++c)
        for (unsigned i = 0; i < kBulkWindow; ++i)
            send(c, pointOf(perConn[c]), t0);

    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kInteractiveRps));
    Clock::time_point nextDue = t0;
    const Clock::time_point drainEnd = after(end, kDrainSeconds);
    std::vector<pollfd> fds;
    for (LineConn *c : conns)
        fds.push_back({c->fd(), POLLIN, 0});
    std::string line;
    for (;;) {
        Clock::time_point now = Clock::now();
        if (nextDue < end && now >= nextDue) {
            send(interConn, probeKind, nextDue);
            nextDue += period;
            continue;
        }
        if (nextDue >= end && outstanding == 0)
            break;
        const int ready =
            waitReadable(fds.data(), fds.size(),
                         nextDue < end ? nextDue : drainEnd);
        if (ready < 0 || (ready == 0 && nextDue >= end))
            break; // error, or the drain deadline passed
        for (uint32_t c = 0; c < conns.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!conns[c]->fill()) {
                t.failures.push_back("connection closed by nachosd");
                return t;
            }
            now = Clock::now();
            while (conns[c]->nextLine(line)) {
                const uint64_t id = responseId(line);
                if (id == 0 || id >= t.sent.size() ||
                    t.sent[id].conn != c || !t.sent[id].response.empty()) {
                    t.failures.push_back("unexpected response: " +
                                         line.substr(0, 200));
                    continue;
                }
                Sent &s = t.sent[id];
                s.answered = now;
                s.response = std::move(line);
                --outstanding;
                if (c != interConn && now <= end) {
                    ++t.bulkCompletedInWindow;
                    send(c, pointOf(perConn[c]), now);
                }
            }
        }
    }
    return t;
}

/** The daemon's `metrics` snapshot, read on `conn`. */
JsonValue
metricsSnapshot(LineConn &conn, uint64_t id)
{
    const std::string req = nachos::dumpJson(
                                nachos::requestEnvelope(id, "metrics")) +
                            "\n";
    std::string line;
    if (!conn.send(req) ||
        !conn.readLine(line, after(Clock::now(), kDrainSeconds)))
        return JsonValue();
    nachos::JsonParseResult parsed = nachos::parseJson(line);
    const JsonValue *stats = parsed.ok ? parsed.value.find("stats") : nullptr;
    return stats ? *stats : JsonValue();
}

double
counter(const JsonValue &stats, const char *name)
{
    const JsonValue *c = stats.find("counters");
    const JsonValue *v = c ? c->find(name) : nullptr;
    return v && v->isNumber() ? v->asDouble() : 0;
}

double
histogramField(const JsonValue &stats, const char *name, const char *field)
{
    const JsonValue *h = stats.find("histograms");
    const JsonValue *e = h ? h->find(name) : nullptr;
    const JsonValue *v = e ? e->find(field) : nullptr;
    return v && v->isNumber() ? v->asDouble() : 0;
}

/** A started daemon and its connections. */
struct Session
{
    std::unique_ptr<DaemonProcess> daemon;
    std::vector<std::unique_ptr<LineConn>> bulk; ///< one per worker
    std::unique_ptr<LineConn> interactive;
};

/**
 * Set-up: daemon start, the connections (in shard order), and one
 * warm-up request of every kind so the region cache holds the bulk
 * region before timing starts.
 */
bool
setUp(const Options &opts, const std::string &socket,
      const std::vector<RequestKind> &kinds, Session &s, Report &rep)
{
    s.daemon = std::make_unique<DaemonProcess>(opts.nachosd, socket);
    if (auto first = s.daemon->connect(10)) {
        s.bulk.push_back(std::move(first));
        for (unsigned i = 1; i < kWorkers; ++i)
            s.bulk.push_back(LineConn::connect(socket));
        s.interactive = LineConn::connect(socket);
    }
    if (s.bulk.empty() || !s.bulk.back() || !s.interactive) {
        rep.fail("serve: nachosd did not start (" + opts.nachosd + ")");
        return false;
    }
    std::vector<std::string> failures;
    for (size_t i = 0; i < kinds.size(); ++i) {
        rep.attempt();
        Sent warm;
        warm.kind = static_cast<uint32_t>(i);
        if (!s.bulk[0]->send(kinds[i].line(1000000 + i)) ||
            !s.bulk[0]->readLine(warm.response,
                                 after(Clock::now(), kDrainSeconds)))
            warm.response.clear();
        verify(warm, 1000000 + i, kinds, failures);
    }
    for (const std::string &f : failures)
        rep.fail("warm-up: " + f);
    return failures.empty();
}

/** Shut the daemon down through the protocol; false if unclean. */
bool
shutDown(Session &s)
{
    std::string line;
    const bool acked =
        s.bulk[0]->send(nachos::dumpJson(
                            nachos::requestEnvelope(2000000, "shutdown")) +
                        "\n") &&
        s.bulk[0]->readLine(line, after(Clock::now(), kDrainSeconds)) &&
        line.find("\"ok\"") != std::string::npos;
    return acked && s.daemon->waitExit(kDrainSeconds) == 0;
}

/**
 * The serve workload's layers, one at a time on the same inputs, on
 * one HierarchyPool: pass 0 warms the pool, passes 1 to kDirectPasses
 * are timed, and pass 1 gives the counts that repeat exactly.
 */
void
traceLayers(const std::vector<RequestKind> &kinds, Tracer &tracer,
            Fingerprint &fp, ModelCounts &counts, uint64_t &fpResults,
            double &dynOps)
{
    nachos::HierarchyPool pool;
    for (uint32_t pass = 0; pass <= kDirectPasses; ++pass) {
        tracer.setPass(pass);
        for (size_t i = 0; i < kinds.size(); ++i) {
            const nachos::JobSpec &spec = kinds[i].spec;
            Tracer::Scope root(tracer, "serve.direct", i);
            nachos::SynthesisOptions synth;
            synth.seed = spec.request.seed;
            nachos::Region region{"empty"};
            {
                Tracer::Scope sp(tracer, "workloads.synth", i);
                region = nachos::synthesizeRegion(*spec.info, synth);
            }
            nachos::AliasAnalysisResult analysis;
            {
                Tracer::Scope sp(tracer, "analysis.pipeline", i);
                analysis = nachos::runAliasPipeline(region);
            }
            nachos::MdeSet mdes;
            {
                Tracer::Scope sp(tracer, "mde.insert", i);
                mdes = nachos::insertMdes(region, analysis.matrix);
            }
            nachos::SimConfig cfg;
            cfg.invocations = spec.request.invocationsOverride;
            spec.request.machine.applyTo(cfg);
            const std::pair<bool, BackendKind> backends[] = {
                {spec.request.runLsq, BackendKind::OptLsq},
                {spec.request.runSw, BackendKind::NachosSw},
                {spec.request.runNachos, BackendKind::Nachos}};
            for (const auto &[run, kind] : backends) {
                if (!run)
                    continue;
                nachos::SimResult r;
                {
                    Tracer::Scope sp(tracer, simSpanName(kind), i);
                    r = nachos::simulate(region, mdes, kind, cfg, pool);
                }
                if (pass >= 1)
                    dynOps += static_cast<double>(region.numOps()) *
                              cfg.invocations;
                if (pass == 1) {
                    fp.add(r);
                    counts.add(kind, r);
                    ++fpResults;
                }
            }
        }
    }
}

/** Mean simulate() time per call of the timed direct passes. */
double
meanSimUs(const Tracer &tracer, bool probe, uint64_t probeKind)
{
    const auto aggs = tracer.aggregate([&](const Span &sp) {
        return sp.pass >= 1 && (sp.id == probeKind) == probe;
    });
    double us = 0;
    uint64_t calls = 0;
    for (BackendKind kind : {BackendKind::OptLsq, BackendKind::NachosSw,
                             BackendKind::Nachos}) {
        auto it = aggs.find(simSpanName(kind));
        if (it != aggs.end()) {
            us += it->second.totalUs;
            calls += it->second.calls;
        }
    }
    return calls ? us / calls : 0;
}

} // namespace

void
runServeWorkload(const Options &opts, Report &rep)
{
    const std::string socket =
        "perfbench-serve-" + std::to_string(::getpid()) + ".sock";
    // The expected answers are computed once, before the timed
    // set-ups: setup_s is the daemon's start-up and warm-up.
    const Clock::time_point k0 = Clock::now();
    const std::vector<RequestKind> kinds = makeKinds(opts);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%-28s %12.4f s  (once, not in setup_s)",
                  "serve.expected_answers_s",
                  secondsBetween(k0, Clock::now()));
    rep.line(buf);
    Session s;
    std::vector<double> setupSeconds;
    for (unsigned i = 0; i < kSetupRepeats; ++i) {
        if (s.daemon && !shutDown(s))
            rep.fail("serve: nachosd did not shut down cleanly");
        s = Session();
        const Clock::time_point t0 = Clock::now();
        if (!setUp(opts, socket, kinds, s, rep))
            return;
        setupSeconds.push_back(secondsBetween(t0, Clock::now()));
    }

    const JsonValue before = metricsSnapshot(*s.bulk[0], 3000000);
    std::vector<LineConn *> bulkConns;
    for (const auto &c : s.bulk)
        bulkConns.push_back(c.get());
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end = after(t0, opts.seconds);
    Traffic t = drive(bulkConns, *s.interactive, kinds, t0, end);
    const JsonValue after_ = metricsSnapshot(*s.bulk[0], 3000001);

    // Verify every stored response now that the clock has stopped.
    const uint32_t probeKind = static_cast<uint32_t>(kinds.size() - 1);
    std::vector<double> interUs, lateUs;
    double clientUs = 0;
    for (uint64_t id = 1; id < t.sent.size(); ++id) {
        const Sent &q = t.sent[id];
        verify(q, id, kinds, t.failures);
        if (q.response.empty())
            continue;
        clientUs += secondsBetween(q.sent, q.answered) * 1e6;
        if (q.kind == probeKind) {
            interUs.push_back(secondsBetween(q.due, q.answered) * 1e6);
            lateUs.push_back(secondsBetween(q.due, q.sent) * 1e6);
        }
    }
    rep.attempt(t.sent.size() - 1);
    for (const std::string &f : t.failures)
        rep.fail(f);

    // Accounting invariants on the final (quiescent) snapshot.
    rep.attempt(2);
    const double accepted = counter(after_, "jobs.accepted");
    if (accepted == 0 ||
        accepted != counter(after_, "jobs.completed") +
                        counter(after_, "jobs.cancelled") +
                        counter(after_, "jobs.expired"))
        rep.fail("serve: accepted != completed + cancelled + expired");
    if (counter(after_, "cache.hits") + counter(after_, "cache.misses") !=
        counter(after_, "batch.groups"))
        rep.fail("serve: cache.hits + cache.misses != batch.groups");

    auto delta = [&](const char *name) {
        return counter(after_, name) - counter(before, name);
    };
    auto hdelta = [&](const char *name, const char *field) {
        return histogramField(after_, name, field) -
               histogramField(before, name, field);
    };
    ServiceDeltas d;
    const double lookups = delta("cache.hits") + delta("cache.misses");
    d.cacheHitRatio = lookups ? delta("cache.hits") / lookups : 0;
    const double waits = hdelta("latency.queueMicros", "count");
    d.queueWaitUsMean =
        waits ? hdelta("latency.queueMicros", "sum") / waits : 0;
    const double groups = delta("batch.groups");
    d.lanesPerGroup = groups ? delta("batch.lanes") / groups : 0;
    d.steals = delta("shard.steals");
    d.rejected = delta("jobs.rejected");
    d.genLateUsP99 = percentile(lateUs, 99);

    if (!shutDown(s))
        rep.fail("serve: nachosd did not shut down cleanly");

    reportSetup(rep, setupSeconds, !opts.trace);
    const double rps = t.bulkCompletedInWindow / opts.seconds;
    std::snprintf(buf, sizeof buf,
                  "%-28s %12.1f req/s  (%llu completed in %.1f s, window "
                  "%u x %u connections)",
                  "serve.bulk_rps", rps,
                  static_cast<unsigned long long>(t.bulkCompletedInWindow),
                  opts.seconds, kBulkWindow, kWorkers);
    rep.line(buf);
    const double p50 =
        rep.timing("serve.interactive_us.p50", interUs, 50, "us");
    const double p90 =
        rep.timing("serve.interactive_us.p90", interUs, 90, "us");
    rep.timing("serve.interactive_us.p99", interUs, 99, "us");
    rep.timing("bench.gen_late_us.p99", lateUs, 99, "us");
    if (d.genLateUsP99 > 1000)
        rep.line("WARNING: the open-loop generator ran more than 1 ms "
                 "late at p99; the serve latencies are not valid");
    std::snprintf(buf, sizeof buf,
                  "daemon deltas: cache hit ratio %.3f, queue wait mean "
                  "%.1f us, lanes/group %.2f, steals %.0f, rejected %.0f",
                  d.cacheHitRatio, d.queueWaitUsMean, d.lanesPerGroup,
                  d.steals, d.rejected);
    rep.line(buf);

    if (!opts.trace) {
        rep.metric("peak_rss_mb", childPeakRssMb(), "MB");
        rep.metric("op_ms.p50", p50 / 1e3, "ms");
        rep.metric("op_ms.tail", p90 / 1e3, "ms");
        rep.metric("rate_per_s", rps, "1/s");
        rep.line("op_ms = interactive request from its due time (tail = "
                 "p90); rate_per_s = completed bulk requests per second; "
                 "peak_rss_mb = nachosd");
        rep.unitMs(p50 / 1e3);
        return;
    }

    // One client-side span per request, then the layers themselves.
    // Request spans are pass 0, outside the layer figures.
    Tracer tracer(t.sent.size() + 64 * (kDirectPasses + 1));
    tracer.setPass(0);
    for (uint64_t id = 1; id < t.sent.size(); ++id) {
        const Sent &q = t.sent[id];
        if (!q.response.empty())
            tracer.record(q.kind == probeKind ? "serve.interactive"
                                              : "serve.bulk",
                          q.sent, q.answered, id);
    }
    // Client time the daemon's enqueue-to-response clock does not
    // cover: protocol, sockets and the client's own reading.
    const double daemonUs = hdelta("latency.totalMicros", "sum");
    const double unattributed =
        clientUs > 0 ? 100.0 * std::max(0.0, clientUs - daemonUs) / clientUs
                     : 0;

    Fingerprint fp;
    ModelCounts counts;
    uint64_t fpResults = 0;
    double dynOps = 0;
    traceLayers(kinds, tracer, fp, counts, fpResults, dynOps);
    const auto timed = tracer.aggregate(
        [](const Span &sp) { return sp.pass >= 1; });
    const auto counted = tracer.aggregate(
        [](const Span &sp) { return sp.pass == 1; });
    reportLayerMetrics(rep, timed, counted, dynOps);
    // cgra.sim_us.* average the bulk and the probe calls; apart:
    std::snprintf(buf, sizeof buf,
                  "direct simulate() per call over %u warm passes: bulk "
                  "%.1f us, interactive %.1f us",
                  kDirectPasses, meanSimUs(tracer, false, probeKind),
                  meanSimUs(tracer, true, probeKind));
    rep.line(buf);
    reportServiceMetrics(rep, d);
    counts.report(rep);
    reportFingerprint(rep, fp, fpResults);
    rep.metric("bench.unattributed_pct", unattributed, "%");
    rep.unitMs(p50 / 1e3);
    if (!opts.traceOut.empty() && !tracer.write(opts.traceOut))
        rep.fail("cannot write " + opts.traceOut);
}

} // namespace perfbench
