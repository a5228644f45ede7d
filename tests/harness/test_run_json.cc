#include <gtest/gtest.h>

#include "harness/run_json.hh"
#include "harness/runner.hh"
#include "support/json.hh"
#include "workloads/benchmark_info.hh"

namespace nachos {
namespace {

JsonValue
mustParse(const std::string &text)
{
    JsonParseResult r = parseJson(text);
    EXPECT_TRUE(r.ok) << r.error;
    return std::move(r.value);
}

TEST(DecodeRunRequest, FullRequest)
{
    JobSpec spec;
    CodecError err;
    ASSERT_TRUE(decodeRunRequest(
        mustParse("{\"workload\":\"179.art\",\"pathIndex\":1,"
                  "\"seed\":7,\"backends\":[\"sw\",\"nachos\"],"
                  "\"pipeline\":{\"stage3\":false},"
                  "\"invocations\":42,\"timeoutMillis\":500,"
                  "\"sleepMillis\":10}"),
        spec, err))
        << err.code << ": " << err.message;
    ASSERT_NE(spec.info, nullptr);
    EXPECT_EQ(spec.info->name, "179.art");
    EXPECT_EQ(spec.request.pathIndex, 1u);
    EXPECT_EQ(spec.request.seed, 7u);
    EXPECT_FALSE(spec.request.runLsq);
    EXPECT_TRUE(spec.request.runSw);
    EXPECT_TRUE(spec.request.runNachos);
    EXPECT_TRUE(spec.request.pipeline.stage2);
    EXPECT_FALSE(spec.request.pipeline.stage3);
    EXPECT_EQ(spec.request.invocationsOverride, 42u);
    EXPECT_EQ(spec.timeoutMillis, 500u);
    EXPECT_EQ(spec.sleepMillis, 10u);
}

TEST(DecodeRunRequest, ShortNameAndDefaults)
{
    JobSpec spec;
    CodecError err;
    ASSERT_TRUE(decodeRunRequest(mustParse("{\"workload\":\"art\"}"),
                                 spec, err));
    ASSERT_NE(spec.info, nullptr);
    EXPECT_EQ(spec.info->name, "179.art");
    EXPECT_EQ(spec.request.pathIndex, 0u);
    EXPECT_EQ(spec.request.seed, 1u);
    EXPECT_TRUE(spec.request.runLsq);
    EXPECT_TRUE(spec.request.runSw);
    EXPECT_TRUE(spec.request.runNachos);
    EXPECT_EQ(spec.request.invocationsOverride, 0u);
}

struct BadCase
{
    const char *json;
    const char *code;
};

TEST(DecodeRunRequest, TypedValidationErrors)
{
    const BadCase cases[] = {
        {"[]", "bad_request"},
        {"{}", "bad_request"},
        {"{\"workload\":7}", "bad_request"},
        {"{\"workload\":\"no-such-bench\"}", "unknown_workload"},
        {"{\"workload\":\"art\",\"pathIndex\":5}", "bad_path_index"},
        {"{\"workload\":\"art\",\"pathIndex\":-1}", "bad_path_index"},
        {"{\"workload\":\"art\",\"pathIndex\":\"x\"}",
         "bad_path_index"},
        {"{\"workload\":\"art\",\"seed\":0}", "bad_seed"},
        {"{\"workload\":\"art\",\"seed\":1.5}", "bad_seed"},
        {"{\"workload\":\"art\",\"backends\":[]}", "bad_request"},
        {"{\"workload\":\"art\",\"backends\":[\"gpu\"]}",
         "bad_request"},
        {"{\"workload\":\"art\",\"backends\":[7]}", "bad_request"},
        {"{\"workload\":\"art\",\"pipeline\":{\"stage9\":true}}",
         "bad_request"},
        {"{\"workload\":\"art\",\"pipeline\":{\"stage2\":1}}",
         "bad_request"},
        {"{\"workload\":\"art\",\"invocations\":99999999999}",
         "bad_request"},
        {"{\"workload\":\"art\",\"sleepMillis\":60001}",
         "bad_request"},
        {"{\"workload\":\"art\",\"typo\":1}", "bad_request"},
    };
    for (const BadCase &c : cases) {
        JobSpec spec;
        CodecError err;
        EXPECT_FALSE(decodeRunRequest(mustParse(c.json), spec, err))
            << "accepted: " << c.json;
        EXPECT_EQ(err.code, c.code) << c.json;
        EXPECT_FALSE(err.message.empty()) << c.json;
    }
}

TEST(RunRequest, EncodeDecodeRoundTrip)
{
    JobSpec spec;
    spec.info = findBenchmark("183.equake");
    ASSERT_NE(spec.info, nullptr);
    spec.request.pathIndex = 2;
    spec.request.seed = 99;
    spec.request.runLsq = false;
    spec.request.pipeline.stage4 = false;
    spec.request.invocationsOverride = 17;
    spec.timeoutMillis = 250;

    JobSpec decoded;
    CodecError err;
    ASSERT_TRUE(decodeRunRequest(encodeRunRequest(spec), decoded, err))
        << err.code << ": " << err.message;
    EXPECT_EQ(decoded.info, spec.info);
    EXPECT_EQ(decoded.request.pathIndex, 2u);
    EXPECT_EQ(decoded.request.seed, 99u);
    EXPECT_FALSE(decoded.request.runLsq);
    EXPECT_TRUE(decoded.request.runSw);
    EXPECT_FALSE(decoded.request.pipeline.stage4);
    EXPECT_EQ(decoded.request.invocationsOverride, 17u);
    EXPECT_EQ(decoded.timeoutMillis, 250u);
    // Round-trips to identical bytes as well.
    EXPECT_EQ(dumpJson(encodeRunRequest(decoded)),
              dumpJson(encodeRunRequest(spec)));
}

// 'batchSim' named the removed batched engine and 'fusion' toggled
// the removed macro-op fusion. For protocol v1 both are still
// accepted (and type-checked) but ignored: the decoded request is
// exactly the one without them, and encoding never emits them.
TEST(RunRequest, RetiredMembersAreAcceptedAndIgnored)
{
    JobSpec plain;
    CodecError err;
    ASSERT_TRUE(decodeRunRequest(
        mustParse(R"({"workload":"164.gzip","seed":4})"), plain, err))
        << err.code << ": " << err.message;
    const std::string want = dumpJson(encodeRunRequest(plain));
    for (const char *json :
         {R"({"workload":"164.gzip","seed":4,"batchSim":true})",
          R"({"workload":"164.gzip","seed":4,"batchSim":false})",
          R"({"workload":"164.gzip","seed":4,"fusion":true})",
          R"({"workload":"164.gzip","seed":4,"fusion":false})"}) {
        JobSpec spec;
        ASSERT_TRUE(decodeRunRequest(mustParse(json), spec, err))
            << json << " -> " << err.code << ": " << err.message;
        EXPECT_EQ(dumpJson(encodeRunRequest(spec)), want) << json;
    }
    EXPECT_EQ(want.find("batchSim"), std::string::npos);
    EXPECT_EQ(want.find("fusion"), std::string::npos);

    for (const char *json :
         {R"({"workload":"164.gzip","batchSim":1})",
          R"({"workload":"164.gzip","fusion":"off"})"}) {
        JobSpec spec;
        EXPECT_FALSE(decodeRunRequest(mustParse(json), spec, err))
            << json;
        EXPECT_EQ(err.code, "bad_request") << json;
    }
}

TEST(Outcome, EncodeDecodeRoundTripOnRealRun)
{
    const BenchmarkInfo *info = findBenchmark("179.art");
    ASSERT_NE(info, nullptr);
    RunRequest request;
    request.invocationsOverride = 3;
    const RunOutcome outcome = runWorkload(*info, request);
    const JsonValue encoded =
        encodeRunOutcome(*info, request, outcome);

    OutcomeSummary summary;
    CodecError err;
    ASSERT_TRUE(decodeOutcome(encoded, summary, err))
        << err.code << ": " << err.message;
    EXPECT_EQ(summary.workload, "179.art");
    EXPECT_EQ(summary.invocations, 3u);
    // art has real pairwise relations, so the labels must be nonzero.
    EXPECT_GT(summary.labels.no + summary.labels.may +
                  summary.labels.must,
              0u);
    ASSERT_TRUE(summary.lsq.has_value());
    ASSERT_TRUE(summary.sw.has_value());
    ASSERT_TRUE(summary.nachos.has_value());
    EXPECT_GT(summary.nachos->cycles, 0u);
    // Re-encoding the decoded summary is byte-identical (canonical
    // member order + lossless numbers).
    EXPECT_EQ(dumpJson(encodeOutcome(summary)), dumpJson(encoded));
}

TEST(Outcome, DecodeRejectsUnknownMember)
{
    const BenchmarkInfo *info = findBenchmark("gzip");
    ASSERT_NE(info, nullptr);
    RunRequest request;
    request.runLsq = false;
    request.runSw = false;
    request.invocationsOverride = 2;
    JsonValue encoded =
        encodeRunOutcome(*info, request, runWorkload(*info, request));
    encoded.set("extra", 1);
    OutcomeSummary summary;
    CodecError err;
    EXPECT_FALSE(decodeOutcome(encoded, summary, err));
    EXPECT_EQ(err.code, "bad_request");
}

TEST(RunRequest, AdmissionClassRoundTrips)
{
    JobSpec spec;
    spec.info = findBenchmark("164.gzip");
    ASSERT_NE(spec.info, nullptr);
    spec.klass = AdmitClass::Bulk;
    JobSpec decoded;
    CodecError err;
    ASSERT_TRUE(decodeRunRequest(encodeRunRequest(spec), decoded, err))
        << err.code << ": " << err.message;
    EXPECT_EQ(decoded.klass, AdmitClass::Bulk);
    // Interactive is the default and is omitted from the encoding.
    spec.klass = AdmitClass::Interactive;
    const JsonValue encoded = encodeRunRequest(spec);
    EXPECT_EQ(encoded.find("class"), nullptr);
    ASSERT_TRUE(decodeRunRequest(encoded, decoded, err));
    EXPECT_EQ(decoded.klass, AdmitClass::Interactive);
}

TEST(Outcome, PartsSummaryMatchesWholeOutcome)
{
    // The daemon's grouped path summarizes from cache-entry parts and
    // per-lane SimResults; it must agree with the whole-outcome
    // overload byte for byte.
    const BenchmarkInfo *info = findBenchmark("179.art");
    ASSERT_NE(info, nullptr);
    RunRequest request;
    request.seed = 2;
    request.invocationsOverride = 2;
    const RunOutcome outcome = runWorkload(*info, request);
    const OutcomeSummary whole =
        summarizeOutcome(*info, request, outcome);
    const OutcomeSummary parts = summarizeOutcome(
        *info, request, outcome.analysis, outcome.mdes,
        outcome.lsq ? &*outcome.lsq : nullptr,
        outcome.sw ? &*outcome.sw : nullptr,
        outcome.nachos ? &*outcome.nachos : nullptr);
    EXPECT_EQ(dumpJson(encodeOutcome(parts)),
              dumpJson(encodeOutcome(whole)));
}

TEST(Outcome, WriterEncodingMatchesTreeEncoding)
{
    const BenchmarkInfo *info = findBenchmark("183.equake");
    ASSERT_NE(info, nullptr);
    RunRequest request;
    request.seed = 6;
    request.invocationsOverride = 1;
    const RunOutcome outcome = runWorkload(*info, request);
    const OutcomeSummary summary =
        summarizeOutcome(*info, request, outcome);
    std::string streamed;
    JsonWriter w(streamed);
    encodeOutcomeTo(w, summary);
    EXPECT_EQ(streamed, dumpJson(encodeOutcome(summary)));
}

TEST(MachineOverrides, DecodeEncodeRoundTrip)
{
    MachineOverrides m;
    CodecError err;
    ASSERT_TRUE(decodeMachineOverrides(
        mustParse("{\"lsqBanks\":8,\"lsqPortsPerBank\":2,"
                  "\"l1SizeBytes\":262144,\"l1Assoc\":8,"
                  "\"l1LineBytes\":32,\"l1Ports\":2,"
                  "\"llcSizeBytes\":8388608,\"dramLatency\":300,"
                  "\"dramRequestsPerCycle\":1,\"netHopsPerCycle\":2,"
                  "\"nachosComparesPerCycle\":4}"),
        m, err))
        << err.code << ": " << err.message;
    EXPECT_TRUE(m.any());
    EXPECT_EQ(m.lsqBanks, 8u);
    EXPECT_EQ(m.l1SizeBytes, 262144u);
    EXPECT_EQ(m.l1LineBytes, 32u);
    EXPECT_EQ(m.nachosComparesPerCycle, 4u);

    MachineOverrides roundTripped;
    ASSERT_TRUE(decodeMachineOverrides(encodeMachineOverrides(m),
                                       roundTripped, err));
    EXPECT_TRUE(roundTripped == m);
    EXPECT_EQ(dumpJson(encodeMachineOverrides(roundTripped)),
              dumpJson(encodeMachineOverrides(m)));
}

TEST(MachineOverrides, EncodeEmitsOnlySetFields)
{
    MachineOverrides m;
    m.lsqBanks = 2;
    const std::string text = dumpJson(encodeMachineOverrides(m));
    EXPECT_EQ(text, "{\"lsqBanks\":2}");
    EXPECT_EQ(dumpJson(encodeMachineOverrides(MachineOverrides{})),
              "{}");
}

TEST(MachineOverrides, TypedValidationErrors)
{
    // Explicit zeros, overflow, cap violations, and geometry violations
    // all come back as the stable `bad_machine` code; an unknown member
    // stays the generic strict-decoding `bad_request`.
    const BadCase cases[] = {
        {"{\"l1Assoc\":0}", "bad_machine"},
        {"{\"lsqBanks\":0}", "bad_machine"},
        {"{\"l1LineBytes\":48}", "bad_machine"},      // not a power of 2
        {"{\"l1LineBytes\":8192}", "bad_machine"},    // over the cap
        {"{\"lsqBanks\":1099511627776}", "bad_machine"}, // overflows u32
        {"{\"lsqBanks\":65}", "bad_machine"},         // over the cap
        {"{\"l1SizeBytes\":2147483648}", "bad_machine"}, // > 1 GiB
        {"{\"dramLatency\":1000001}", "bad_machine"},
        {"{\"l1Assoc\":1.5}", "bad_machine"},
        // Effective geometry: 1 KiB L1 with default assoc*lineBytes
        // (4 * 64 = 256) holds sets, but 128 B does not.
        {"{\"l1SizeBytes\":128}", "bad_machine"},
        // 64 KiB not divisible by assoc 64 * line 2048... (64*2048 =
        // 128 KiB > 64 KiB): zero sets again.
        {"{\"l1Assoc\":64,\"l1LineBytes\":2048}", "bad_machine"},
        {"{\"lsqBanksTypo\":4}", "bad_request"},
        {"[]", "bad_machine"},
    };
    for (const BadCase &c : cases) {
        MachineOverrides m;
        CodecError err;
        EXPECT_FALSE(decodeMachineOverrides(mustParse(c.json), m, err))
            << "accepted: " << c.json;
        EXPECT_EQ(err.code, c.code) << c.json;
        EXPECT_FALSE(err.message.empty()) << c.json;
    }
}

TEST(MachineOverrides, DecodeResetsStaleMembers)
{
    // A reused decode target must not leak fields from a previous
    // decode: the second object sets only l1Assoc, so lsqBanks must
    // come back 0 even though the first decode set it.
    MachineOverrides m;
    CodecError err;
    ASSERT_TRUE(decodeMachineOverrides(
        mustParse("{\"lsqBanks\":8,\"l1Assoc\":8}"), m, err));
    ASSERT_TRUE(decodeMachineOverrides(mustParse("{\"l1Assoc\":2}"), m,
                                       err));
    EXPECT_EQ(m.lsqBanks, 0u);
    EXPECT_EQ(m.l1Assoc, 2u);
}

TEST(MachineOverrides, RunRequestWiresMachineThrough)
{
    // The daemon's steady-state path reuses one parse tree per
    // connection (parseJsonInPlace); decoding a request WITHOUT a
    // machine member after one WITH must reset the overrides.
    JsonValue reuse;
    ASSERT_TRUE(parseJsonInPlace("{\"workload\":\"art\",\"machine\":"
                                 "{\"lsqBanks\":2}}",
                                 reuse)
                    .ok);
    JobSpec spec;
    CodecError err;
    ASSERT_TRUE(decodeRunRequest(reuse, spec, err))
        << err.code << ": " << err.message;
    EXPECT_EQ(spec.request.machine.lsqBanks, 2u);

    ASSERT_TRUE(parseJsonInPlace("{\"workload\":\"art\"}", reuse).ok);
    ASSERT_TRUE(decodeRunRequest(reuse, spec, err));
    EXPECT_FALSE(spec.request.machine.any());

    // And a bad machine member fails with the stable code through the
    // full request decoder too.
    ASSERT_TRUE(parseJsonInPlace("{\"workload\":\"art\",\"machine\":"
                                 "{\"l1Assoc\":0}}",
                                 reuse)
                    .ok);
    EXPECT_FALSE(decodeRunRequest(reuse, spec, err));
    EXPECT_EQ(err.code, "bad_machine");
}

TEST(MachineOverrides, RequestRoundTripsWithMachine)
{
    JobSpec spec;
    spec.info = findBenchmark("183.equake");
    ASSERT_NE(spec.info, nullptr);
    spec.request.machine.lsqBanks = 8;
    spec.request.machine.dramLatency = 400;

    JobSpec decoded;
    CodecError err;
    ASSERT_TRUE(decodeRunRequest(encodeRunRequest(spec), decoded, err))
        << err.code << ": " << err.message;
    EXPECT_TRUE(decoded.request.machine == spec.request.machine);
    EXPECT_EQ(dumpJson(encodeRunRequest(decoded)),
              dumpJson(encodeRunRequest(spec)));
}

} // namespace
} // namespace nachos
