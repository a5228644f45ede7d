/**
 * @file
 * nachosd serving throughput: an in-process daemon on a Unix-domain
 * socket, driven by 1/4/16 closed-loop client connections sending
 * small identical jobs through the shared loadgen harness
 * (service/loadgen.hh — the same driver behind nachos_loadgen and
 * bench_service_slo). Reports jobs/sec plus the daemon's own
 * queue/total latency percentiles per client count — the smoke-level
 * answer to "what does the JSON-lines layer cost on top of the
 * Runner?".
 *
 * The daemon runs in its single-lane shape (no coalescing, no region
 * cache) so this stays the A/B baseline the SLO bench compares
 * against.
 */

#include <unistd.h>

#include <iostream>

#include "harness/report.hh"
#include "service/daemon.hh"
#include "service/loadgen.hh"
#include "support/logging.hh"
#include "support/table.hh"

using namespace nachos;

namespace {

constexpr uint64_t kJobsPerClient = 8;

uint64_t
histogramField(const JsonValue &snapshot, const char *histogram,
               const char *field)
{
    const JsonValue *h = snapshot.find("histograms");
    const JsonValue *lat = h ? h->find(histogram) : nullptr;
    const JsonValue *v = lat ? lat->find(field) : nullptr;
    return v && v->isU64() ? v->asU64() : 0;
}

} // namespace

int
main()
{
    setQuiet(true);
    printHeader(std::cout, "Service",
                "nachosd throughput: small jobs (164.gzip, "
                "1 invocation, nachos backend), legacy single-lane "
                "baseline");

    TextTable table;
    table.header({"clients", "jobs", "wall ms", "jobs/s",
                  "queue p95 us", "total p95 us"});

    for (const unsigned clients : {1u, 4u, 16u}) {
        const std::string socketPath =
            "/tmp/nachos-bench-" + std::to_string(::getpid()) + "-" +
            std::to_string(clients) + ".sock";
        DaemonConfig config;
        config.socketPath = socketPath;
        config.workers = 2;
        config.queueCapacity = clients * kJobsPerClient;
        config.maxBatchLanes = 1;    // single-lane baseline
        config.regionCacheEntries = 0;
        Daemon daemon(config);
        std::string error;
        if (!daemon.start(&error)) {
            std::cerr << "nachosd start: " << error << "\n";
            return 1;
        }

        LoadGenConfig load;
        load.socketPath = socketPath;
        load.clients = clients;
        load.requestsPerClient = kJobsPerClient;
        load.workload = "164.gzip";
        load.invocations = 1;
        load.seed = 1;
        load.backends = {"nachos"};
        LoadGenResult result;
        if (!runLoadGen(load, result, &error)) {
            std::cerr << "loadgen: " << error << "\n";
            return 1;
        }
        if (result.completed != result.sent ||
            result.errors + result.protocolErrors) {
            std::cerr << "a client failed; results are invalid\n";
            return 1;
        }

        const JsonValue snapshot = daemon.metricsSnapshot();
        table.row({std::to_string(clients),
                   std::to_string(result.completed),
                   fmtDouble(result.wallSeconds * 1e3, 1),
                   fmtDouble(result.achievedRps(), 0),
                   std::to_string(histogramField(
                       snapshot, "latency.queueMicros", "p95")),
                   std::to_string(histogramField(
                       snapshot, "latency.totalMicros", "p95"))});
        daemon.drain();
        ::unlink(socketPath.c_str());
    }
    table.print(std::cout);
    return 0;
}
