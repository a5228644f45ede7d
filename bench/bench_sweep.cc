/**
 * @file
 * Sweep throughput: points/s for one fixed 12-point design-space
 * sweep (183.equake, three backends, lsqBanks x l1SizeBytes), run
 * twice — fully in-process, then through a live nachosd over its Unix
 * socket — so the serving plane's overhead on sweep traffic stays
 * visible per commit.
 *
 * Timing never gates: the exit code only reflects whether every
 * point completed.
 */

#include <unistd.h>

#include <chrono>
#include <iostream>

#include "harness/report.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "sweep/orchestrator.hh"

using namespace nachos;

namespace {

constexpr char kSpecJson[] =
    R"({"name": "bench",
        "workloads": ["183.equake"],
        "invocations": 50,
        "axes": {"lsqBanks": [1, 4],
                 "l1SizeBytes": [16384, 65536]}})";

struct Measurement
{
    double seconds = 0;
    size_t points = 0;
    bool clean = false;
};

Measurement
timeSweep(const std::vector<SweepPoint> &points, bool overDaemon)
{
    const std::string tag = overDaemon ? "daemon" : "inproc";
    const std::string storePath = "/tmp/nachos-sweep-bench-" +
                                  std::to_string(::getpid()) + "-" +
                                  tag + ".jsonl";
    ::unlink(storePath.c_str());
    SweepStore store(storePath);
    SweepRunOptions options;
    SweepRunStats stats;
    std::string error;
    Measurement m;

    using clock = std::chrono::steady_clock;
    bool ok = false;
    if (overDaemon) {
        const std::string socketPath =
            "/tmp/nachos-sweep-bench-" + std::to_string(::getpid()) +
            ".sock";
        DaemonConfig config;
        config.socketPath = socketPath;
        config.workers = 2;
        config.regionCacheEntries = 16;
        Daemon daemon(std::move(config));
        if (!daemon.start(&error)) {
            std::cerr << "nachosd start: " << error << "\n";
            return m;
        }
        std::unique_ptr<ServiceClient> client =
            ServiceClient::connectUnix(socketPath, &error);
        if (!client) {
            std::cerr << "connect: " << error << "\n";
            daemon.drain();
            return m;
        }
        const clock::time_point start = clock::now();
        ok = runSweepOverDaemon(points, store, *client, options,
                                stats, &error);
        m.seconds =
            std::chrono::duration<double>(clock::now() - start)
                .count();
        client.reset();
        daemon.drain();
        ::unlink(socketPath.c_str());
    } else {
        const clock::time_point start = clock::now();
        ok = runSweepInProcess(points, store, options, stats, &error);
        m.seconds =
            std::chrono::duration<double>(clock::now() - start)
                .count();
    }
    if (!ok)
        std::cerr << "sweep (" << tag << "): " << error << "\n";
    m.points = stats.ran;
    m.clean = ok && stats.failed == 0 && stats.ran == points.size();
    store.close();
    ::unlink(storePath.c_str());
    return m;
}

} // namespace

int
main()
{
    setQuiet(true);
    printHeader(std::cout, "Sweep",
                "design-space sweep throughput: in-process vs over "
                "nachosd");

    JsonParseResult parsed = parseJson(kSpecJson);
    NACHOS_ASSERT(parsed.ok, "bench spec must parse");
    SweepSpec spec;
    CodecError err;
    if (!decodeSweepSpec(parsed.value, spec, err))
        NACHOS_FATAL("bench spec rejected: ", err.message);
    const std::vector<SweepPoint> points = expandSweep(spec);

    const Measurement inproc = timeSweep(points, false);
    const Measurement daemon = timeSweep(points, true);

    TextTable table;
    table.header({"mode", "points", "seconds", "points/s"});
    bool clean = true;
    auto report = [&](const char *stage, const Measurement &m) {
        const double rate = m.seconds > 0 ? m.points / m.seconds : 0;
        table.row({stage, std::to_string(m.points),
                   fmtDouble(m.seconds, 3), fmtDouble(rate, 1)});
        clean = clean && m.clean;
    };
    report("sweep-inprocess", inproc);
    report("sweep-daemon", daemon);
    table.print(std::cout);

    std::cout << "\nreport-only timing; exit reflects sweep "
                 "completeness only\n";
    return clean ? 0 : 1;
}
