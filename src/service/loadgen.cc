#include "service/loadgen.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "service/client.hh"
#include "service/protocol.hh"

namespace nachos {

namespace {

using clock_t_ = std::chrono::steady_clock;

uint64_t
microsSince(clock_t_::time_point t0, clock_t_::time_point t1)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
}

JsonValue
buildRequest(const LoadGenConfig &config)
{
    JsonValue run = JsonValue::makeObject();
    run.set("workload", config.workload);
    if (config.pathIndex)
        run.set("pathIndex", static_cast<uint64_t>(config.pathIndex));
    if (config.seed)
        run.set("seed", config.seed);
    JsonValue backends = JsonValue::makeArray();
    for (const std::string &b : config.backends)
        backends.push(b);
    run.set("backends", std::move(backends));
    if (config.invocations)
        run.set("invocations", config.invocations);
    if (config.timeoutMillis)
        run.set("timeoutMillis", config.timeoutMillis);
    if (config.klass == AdmitClass::Bulk)
        run.set("class", "bulk");
    JsonValue req = requestEnvelope(1, "run");
    req.set("run", std::move(run));
    return req;
}

std::unique_ptr<ServiceClient>
connect(const LoadGenConfig &config, std::string *error)
{
    return config.tcpPort
               ? ServiceClient::connectTcp(config.tcpHost,
                                           config.tcpPort, error)
               : ServiceClient::connectUnix(config.socketPath, error);
}

void
classify(const std::optional<JsonValue> &response, LoadGenResult &tally)
{
    const JsonValue *type =
        response ? response->find("type") : nullptr;
    if (!type || !type->isString())
        ++tally.protocolErrors;
    else if (type->str() == "result")
        ++tally.completed;
    else if (type->str() == "error")
        ++tally.errors;
    else
        ++tally.protocolErrors;
}

/** Closed loop: one request in flight, send -> wait -> repeat. */
void
closedLoopClient(const LoadGenConfig &config, LoadGenResult &tally)
{
    std::unique_ptr<ServiceClient> client = connect(config, nullptr);
    if (!client) {
        ++tally.protocolErrors;
        return;
    }
    JsonValue request = buildRequest(config);
    for (uint64_t i = 0; i < config.requestsPerClient; ++i) {
        request.set("id", i + 1);
        const clock_t_::time_point t0 = clock_t_::now();
        if (!client->sendRequest(request)) {
            ++tally.protocolErrors;
            return;
        }
        ++tally.sent;
        std::optional<JsonValue> response = client->waitFor(i + 1);
        tally.latencyMicros.sample(microsSince(t0, clock_t_::now()));
        classify(response, tally);
        if (!response)
            return; // EOF; counted above
    }
}

/**
 * Open loop over one connection. ServiceClient is not generally
 * thread-safe, but sendRequest touches only the fd while
 * readLine/readResponse touch only the rx buffer, so runOpenLoop's
 * one-sender/one-reader split is sound.
 */
void
openLoopClient(const LoadGenConfig &config, double perClientRps,
               LoadGenResult &tally)
{
    std::unique_ptr<ServiceClient> client = connect(config, nullptr);
    if (!client) {
        ++tally.protocolErrors;
        return;
    }
    const uint64_t total = static_cast<uint64_t>(
        perClientRps * config.durationSeconds);
    if (total == 0)
        return;
    const auto interval = std::chrono::duration_cast<
        clock_t_::duration>(std::chrono::duration<double>(
        1.0 / perClientRps));

    JsonValue request = buildRequest(config);
    OpenLoopIo io;
    io.send = [&](uint64_t id) {
        request.set("id", id);
        return client->sendRequest(request);
    };
    io.receive = [&] { return client->readResponse(); };
    runOpenLoop(total, interval, io, tally);
}

} // namespace

void
runOpenLoop(uint64_t total, std::chrono::steady_clock::duration interval,
            const OpenLoopIo &io, LoadGenResult &result)
{
    // Requests the reader should expect; the sender lowers it if a
    // send fails (the connection is broken then, so the reader's
    // blocking read resolves as EOF rather than hanging).
    std::atomic<uint64_t> expected{total};
    const clock_t_::time_point start = clock_t_::now();

    std::thread sender([&] {
        for (uint64_t i = 0; i < total; ++i) {
            std::this_thread::sleep_until(start + interval * i);
            if (!io.send(i + 1)) {
                expected.store(i);
                return;
            }
        }
    });

    uint64_t received = 0;
    while (received < expected.load()) {
        std::optional<JsonValue> response = io.receive();
        if (!response) {
            // EOF: whatever is still unanswered is a protocol error.
            break;
        }
        const clock_t_::time_point now = clock_t_::now();
        ++received;
        classify(response, result);
        const JsonValue *id = response->find("id");
        if (id && id->isU64() && id->asU64() >= 1 &&
            id->asU64() <= total) {
            // From the due time, not the actual send (see header).
            const clock_t_::time_point due =
                start + interval * (id->asU64() - 1);
            result.latencyMicros.sample(microsSince(due, now));
        }
    }
    sender.join();
    result.sent += expected.load();
    if (received < expected.load())
        result.protocolErrors += expected.load() - received;
}

bool
runLoadGen(const LoadGenConfig &config, LoadGenResult &result,
           std::string *error)
{
    // Fail fast (before spawning clients) if the daemon is absent.
    {
        std::unique_ptr<ServiceClient> probe = connect(config, error);
        if (!probe)
            return false;
    }

    const unsigned clients = config.clients ? config.clients : 1;
    std::vector<LoadGenResult> tallies(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const clock_t_::time_point begin = clock_t_::now();
    for (unsigned c = 0; c < clients; ++c) {
        LoadGenResult &tally = tallies[c];
        if (config.openRps > 0) {
            const double perClient = config.openRps / clients;
            threads.emplace_back([&config, perClient, &tally] {
                openLoopClient(config, perClient, tally);
            });
        } else {
            threads.emplace_back([&config, &tally] {
                closedLoopClient(config, tally);
            });
        }
    }
    for (std::thread &t : threads)
        t.join();
    result.wallSeconds = std::chrono::duration<double>(
                             clock_t_::now() - begin)
                             .count();
    for (const LoadGenResult &tally : tallies) {
        result.sent += tally.sent;
        result.completed += tally.completed;
        result.errors += tally.errors;
        result.protocolErrors += tally.protocolErrors;
        result.latencyMicros.merge(tally.latencyMicros);
    }
    return true;
}

JsonValue
loadGenResultJson(const LoadGenConfig &config,
                  const LoadGenResult &result)
{
    JsonValue v = JsonValue::makeObject();
    v.set("workload", config.workload);
    v.set("clients", static_cast<uint64_t>(config.clients));
    v.set("mode", config.openRps > 0 ? "open" : "closed");
    v.set("class", config.klass == AdmitClass::Bulk ? "bulk"
                                                    : "interactive");
    v.set("sent", result.sent);
    v.set("completed", result.completed);
    v.set("errors", result.errors);
    v.set("protocolErrors", result.protocolErrors);
    v.set("wallSeconds", result.wallSeconds);
    v.set("reqps", result.achievedRps());
    v.set("latencyMicros", result.latencyMicros.jsonSnapshot());
    return v;
}

} // namespace nachos
