/**
 * Load generator: the open-loop schedule times each request from when
 * it was due, so a sender that falls behind cannot hide the queueing
 * delay it causes (coordinated omission).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "service/loadgen.hh"

namespace nachos {
namespace {

TEST(LoadGen, OpenLoopTimesFromTheDueTimeNotTheSend)
{
    constexpr uint64_t kTotal = 10;
    constexpr auto kInterval = std::chrono::milliseconds(1);
    constexpr auto kStall = std::chrono::milliseconds(80);

    // An in-process echo that answers every request the moment it is
    // sent; only the sender is slow, stalling on its first send.
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<uint64_t> sent;
    OpenLoopIo io;
    io.send = [&](uint64_t id) {
        if (id == 1)
            std::this_thread::sleep_for(kStall);
        {
            std::lock_guard<std::mutex> lock(mutex);
            sent.push_back(id);
        }
        cv.notify_one();
        return true;
    };
    io.receive = [&]() -> std::optional<JsonValue> {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !sent.empty(); });
        JsonValue response = JsonValue::makeObject();
        response.set("type", "result");
        response.set("id", sent.front());
        sent.pop_front();
        return response;
    };

    LoadGenResult result;
    runOpenLoop(kTotal, kInterval, io, result);
    EXPECT_EQ(result.sent, kTotal);
    EXPECT_EQ(result.completed, kTotal);
    EXPECT_EQ(result.protocolErrors, 0u);
    ASSERT_EQ(result.latencyMicros.count(), kTotal);
    // Every request went out after the stall although the last was
    // due 9 ms in: each waited at least 80 - 9 ms. Timing from the
    // actual send would report the nine requests behind the stalled
    // one as answered instantly.
    EXPECT_GE(result.latencyMicros.min(), 71'000u);
    EXPECT_GE(result.latencyMicros.max(), 80'000u);
}

TEST(LoadGen, OpenLoopCountsUnansweredRequestsAfterABrokenSend)
{
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<uint64_t> sent;
    bool broken = false;
    OpenLoopIo io;
    io.send = [&](uint64_t id) {
        std::lock_guard<std::mutex> lock(mutex);
        if (id == 4) {
            broken = true; // the peer went away
        } else {
            sent.push_back(id);
        }
        cv.notify_one();
        return !broken;
    };
    io.receive = [&]() -> std::optional<JsonValue> {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !sent.empty() || broken; });
        if (sent.empty())
            return std::nullopt; // EOF
        JsonValue response = JsonValue::makeObject();
        response.set("type", "result");
        response.set("id", sent.front());
        sent.pop_front();
        return response;
    };

    LoadGenResult result;
    runOpenLoop(8, std::chrono::milliseconds(1), io, result);
    EXPECT_EQ(result.sent, 3u);
    EXPECT_EQ(result.completed, 3u);
    EXPECT_EQ(result.protocolErrors, 0u);
}

} // namespace
} // namespace nachos
