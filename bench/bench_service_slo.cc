/**
 * @file
 * nachosd SLO curve: sustained req/s at a p99 latency bound, before
 * and after the serving-plane rework. Config A is the baseline (two
 * workers, no region cache: every job rebuilds its front end); config
 * B runs four workers with the synthesized-region cache on the same
 * path. Both are driven by the same closed-loop loadgen (service/loadgen.hh) over 1/4/16/64
 * client connections sending identical bulk jobs (183.equake,
 * 1 invocation, nachos backend).
 *
 * Also measures interactive p99 while a 16-client bulk sweep runs on
 * config B — the per-class rings mean bulk load must not wreck
 * interactive latency.
 *
 * Timing never gates: the exit code only reflects protocol errors.
 */

#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "harness/report.hh"
#include "service/daemon.hh"
#include "service/loadgen.hh"
#include "support/logging.hh"
#include "support/table.hh"

using namespace nachos;

namespace {

constexpr int kTotalRequests = 128; ///< per (config, client count)

DaemonConfig
makeConfig(const std::string &socketPath, bool legacy)
{
    DaemonConfig config;
    config.socketPath = socketPath;
    if (legacy) {
        // Baseline shape: two workers, no cache.
        config.workers = 2;
        config.regionCacheEntries = 0;
    } else {
        config.workers = 4;
        config.regionCacheEntries = 64;
    }
    config.queueCapacity = 256;
    config.bulkQueueCapacity = 512;
    return config;
}

LoadGenConfig
makeLoad(const std::string &socketPath, unsigned clients,
         uint64_t requestsPerClient, AdmitClass klass)
{
    LoadGenConfig load;
    load.socketPath = socketPath;
    load.clients = clients;
    load.requestsPerClient = requestsPerClient;
    load.workload = "183.equake";
    load.invocations = 1;
    load.seed = 1;
    load.backends = {"nachos"};
    load.klass = klass;
    return load;
}

struct SloPoint
{
    unsigned clients = 0;
    double reqps = 0;
    uint64_t p99Micros = 0;
    bool clean = false; ///< no errors, completed == sent
};

SloPoint
measure(bool legacy, unsigned clients)
{
    const std::string socketPath =
        "/tmp/nachos-slo-" + std::to_string(::getpid()) + "-" +
        (legacy ? "a" : "b") + std::to_string(clients) + ".sock";
    Daemon daemon(makeConfig(socketPath, legacy));
    std::string error;
    SloPoint point;
    point.clients = clients;
    if (!daemon.start(&error)) {
        std::cerr << "nachosd start: " << error << "\n";
        return point;
    }
    const uint64_t perClient =
        std::max<uint64_t>(1, kTotalRequests / clients);
    LoadGenResult result;
    if (!runLoadGen(makeLoad(socketPath, clients, perClient,
                             AdmitClass::Bulk),
                    result, &error)) {
        std::cerr << "loadgen: " << error << "\n";
        daemon.drain();
        return point;
    }
    point.reqps = result.achievedRps();
    point.p99Micros = result.latencyMicros.p99();
    point.clean = result.errors == 0 && result.protocolErrors == 0 &&
                  result.completed == result.sent;
    daemon.drain();
    ::unlink(socketPath.c_str());
    return point;
}

} // namespace

int
main()
{
    setQuiet(true);
    printHeader(std::cout, "Service",
                "nachosd SLO curve: bulk req/s at p99, legacy "
                "uncached (A) vs sharded+cached (B)");

    bool allClean = true;
    TextTable table;
    table.header({"clients", "A req/s", "A p99 us", "B req/s",
                  "B p99 us", "speedup"});
    for (const unsigned clients : {1u, 4u, 16u, 64u}) {
        const SloPoint a = measure(true, clients);
        const SloPoint b = measure(false, clients);
        allClean = allClean && a.clean && b.clean;
        table.row({std::to_string(clients), fmtDouble(a.reqps, 1),
                   std::to_string(a.p99Micros), fmtDouble(b.reqps, 1),
                   std::to_string(b.p99Micros),
                   a.reqps > 0 ? fmtDouble(b.reqps / a.reqps, 2) + "x"
                               : "n/a"});
    }
    table.print(std::cout);

    // ---- interactive p99 with and without a concurrent bulk sweep --
    {
        const std::string socketPath =
            "/tmp/nachos-slo-" + std::to_string(::getpid()) +
            "-mix.sock";
        Daemon daemon(makeConfig(socketPath, false));
        std::string error;
        if (!daemon.start(&error)) {
            std::cerr << "nachosd start: " << error << "\n";
            return 1;
        }

        LoadGenResult idle;
        allClean &= runLoadGen(makeLoad(socketPath, 1, 24,
                                        AdmitClass::Interactive),
                               idle, &error);

        LoadGenResult bulk;
        std::thread sweep([&] {
            runLoadGen(makeLoad(socketPath, 16, 12, AdmitClass::Bulk),
                       bulk, nullptr);
        });
        LoadGenResult contended;
        allClean &= runLoadGen(makeLoad(socketPath, 1, 24,
                                        AdmitClass::Interactive),
                               contended, &error);
        sweep.join();
        daemon.drain();
        ::unlink(socketPath.c_str());

        std::cout << "\ninteractive p99: "
                  << idle.latencyMicros.p99() << " us idle, "
                  << contended.latencyMicros.p99()
                  << " us under a 16-client bulk sweep ("
                  << fmtDouble(bulk.achievedRps(), 1)
                  << " bulk req/s alongside)\n";
        allClean = allClean && idle.completed == idle.sent &&
                   contended.completed == contended.sent &&
                   bulk.completed == bulk.sent;
    }

    std::cout << "\nreport-only timing; exit reflects protocol "
                 "health only\n";
    return allClean ? 0 : 1;
}
