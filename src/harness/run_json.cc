#include "harness/run_json.hh"

#include <initializer_list>
#include <limits>
#include <string_view>
#include <type_traits>

namespace nachos {

namespace {

bool
failCodec(CodecError &err, std::string code, std::string message)
{
    err.code = std::move(code);
    err.message = std::move(message);
    return false;
}

/** Reject members outside `allowed` (strict decoding). */
bool
checkMembers(const JsonValue &v,
             std::initializer_list<std::string_view> allowed,
             CodecError &err)
{
    for (const auto &member : v.members()) {
        bool known = false;
        for (const std::string_view name : allowed)
            known |= member.first == name;
        if (!known)
            return failCodec(err, "bad_request",
                             "unknown member '" + member.first + "'");
    }
    return true;
}

bool
getU64Member(const JsonValue &v, const char *name, uint64_t &out,
             CodecError &err, const char *code = "bad_request")
{
    const JsonValue *m = v.find(name);
    if (!m)
        return true; // optional; caller keeps the default
    if (!m->isU64())
        return failCodec(err, code,
                         std::string("'") + name +
                             "' must be a non-negative integer");
    out = m->asU64();
    return true;
}

JsonValue
encodePairCounts(const PairCounts &counts)
{
    JsonValue v = JsonValue::makeObject();
    v.set("no", counts.no);
    v.set("may", counts.may);
    v.set("must", counts.must);
    return v;
}

bool
decodePairCounts(const JsonValue *v, PairCounts &counts,
                 CodecError &err)
{
    if (!v || !v->isObject())
        return failCodec(err, "bad_request",
                         "pair-count object missing");
    if (!checkMembers(*v, {"no", "may", "must"}, err))
        return false;
    return getU64Member(*v, "no", counts.no, err) &&
           getU64Member(*v, "may", counts.may, err) &&
           getU64Member(*v, "must", counts.must, err);
}

JsonValue
encodeSimSummary(const SimSummary &s)
{
    JsonValue v = JsonValue::makeObject();
    v.set("cycles", s.cycles);
    v.set("cyclesPerInvocation", s.cyclesPerInvocation);
    v.set("maxMlp", s.maxMlp);
    v.set("avgMlp", s.avgMlp);
    v.set("loadValueDigest", s.loadValueDigest);
    v.set("energyTotal", s.energyTotal);
    return v;
}

bool
decodeSimSummary(const JsonValue &v, SimSummary &s, CodecError &err)
{
    if (!v.isObject())
        return failCodec(err, "bad_request",
                         "backend summary must be an object");
    if (!checkMembers(v,
                      {"cycles", "cyclesPerInvocation", "maxMlp",
                       "avgMlp", "loadValueDigest", "energyTotal"},
                      err))
        return false;
    if (!getU64Member(v, "cycles", s.cycles, err) ||
        !getU64Member(v, "maxMlp", s.maxMlp, err) ||
        !getU64Member(v, "loadValueDigest", s.loadValueDigest, err))
        return false;
    const JsonValue *cpi = v.find("cyclesPerInvocation");
    const JsonValue *mlp = v.find("avgMlp");
    const JsonValue *energy = v.find("energyTotal");
    if (!cpi || !cpi->isNumber() || !mlp || !mlp->isNumber() ||
        !energy || !energy->isNumber())
        return failCodec(err, "bad_request",
                         "backend summary field missing or non-numeric");
    s.cyclesPerInvocation = cpi->asDouble();
    s.avgMlp = mlp->asDouble();
    s.energyTotal = energy->asDouble();
    return true;
}

SimSummary
summarizeSim(const SimResult &r)
{
    SimSummary s;
    s.cycles = r.cycles;
    s.cyclesPerInvocation = r.cyclesPerInvocation;
    s.maxMlp = r.maxMlp;
    s.avgMlp = r.avgMlp;
    s.loadValueDigest = r.loadValueDigest;
    s.energyTotal = r.energy.total();
    return s;
}

} // namespace

bool
decodeMachineOverrides(const JsonValue &v, MachineOverrides &out,
                       CodecError &err)
{
    // Reset first: a reused target (the daemon decodes into one
    // JobSpec per connection) must never keep overrides from an
    // earlier request whose members this one omits.
    out = MachineOverrides{};
    if (!v.isObject())
        return failCodec(err, "bad_machine",
                         "'machine' must be an object");
    if (!checkMembers(v,
                      {"lsqBanks", "lsqPortsPerBank", "l1SizeBytes",
                       "l1Assoc", "l1LineBytes", "l1Ports",
                       "llcSizeBytes", "dramLatency",
                       "dramRequestsPerCycle", "netHopsPerCycle",
                       "nachosComparesPerCycle"},
                      err))
        return false;
    auto field = [&](const char *name, auto &slot) {
        const JsonValue *f = v.find(name);
        if (!f)
            return true; // unset: keep the default (0 sentinel)
        // An explicit zero is rejected rather than treated as "unset":
        // silently decoding 0 back to the default would mask typos
        // and make zero/overflow bugs unobservable on the wire.
        if (!f->isU64() || f->asU64() == 0)
            return failCodec(err, "bad_machine",
                             std::string("'machine.") + name +
                                 "' must be a positive integer");
        using Slot = std::remove_reference_t<decltype(slot)>;
        const uint64_t raw = f->asU64();
        if (raw > std::numeric_limits<Slot>::max())
            return failCodec(err, "bad_machine",
                             std::string("'machine.") + name +
                                 "' overflows its field");
        slot = static_cast<Slot>(raw);
        return true;
    };
    if (!field("lsqBanks", out.lsqBanks) ||
        !field("lsqPortsPerBank", out.lsqPortsPerBank) ||
        !field("l1SizeBytes", out.l1SizeBytes) ||
        !field("l1Assoc", out.l1Assoc) ||
        !field("l1LineBytes", out.l1LineBytes) ||
        !field("l1Ports", out.l1Ports) ||
        !field("llcSizeBytes", out.llcSizeBytes) ||
        !field("dramLatency", out.dramLatency) ||
        !field("dramRequestsPerCycle", out.dramRequestsPerCycle) ||
        !field("netHopsPerCycle", out.netHopsPerCycle) ||
        !field("nachosComparesPerCycle", out.nachosComparesPerCycle))
        return false;
    if (const char *bad = validateMachineOverrides(out))
        return failCodec(err, "bad_machine", bad);
    return true;
}

JsonValue
encodeMachineOverrides(const MachineOverrides &m)
{
    JsonValue v = JsonValue::makeObject();
    auto emit = [&v](const char *name, uint64_t value) {
        if (value)
            v.set(name, value);
    };
    emit("lsqBanks", m.lsqBanks);
    emit("lsqPortsPerBank", m.lsqPortsPerBank);
    emit("l1SizeBytes", m.l1SizeBytes);
    emit("l1Assoc", m.l1Assoc);
    emit("l1LineBytes", m.l1LineBytes);
    emit("l1Ports", m.l1Ports);
    emit("llcSizeBytes", m.llcSizeBytes);
    emit("dramLatency", m.dramLatency);
    emit("dramRequestsPerCycle", m.dramRequestsPerCycle);
    emit("netHopsPerCycle", m.netHopsPerCycle);
    emit("nachosComparesPerCycle", m.nachosComparesPerCycle);
    return v;
}

bool
decodeRunRequest(const JsonValue &v, JobSpec &spec, CodecError &err)
{
    if (!v.isObject())
        return failCodec(err, "bad_request",
                         "run request must be an object");
    if (!checkMembers(v,
                      {"workload", "pathIndex", "seed", "backends",
                       "pipeline", "invocations", "machine", "batchSim",
                       "fusion", "timeoutMillis", "sleepMillis", "class"},
                      err))
        return false;

    // Absent optional members mean their defaults, even when the
    // caller reuses a spec (JobSpec holds no heap state, so this
    // stays on the decode path's zero-allocation budget).
    spec = JobSpec{};

    const JsonValue *workload = v.find("workload");
    if (!workload || !workload->isString())
        return failCodec(err, "bad_request",
                         "'workload' (string) is required");
    spec.info = findBenchmark(workload->str());
    if (!spec.info)
        return failCodec(err, "unknown_workload",
                         "unknown workload '" + workload->str() + "'");

    uint64_t path = 0;
    if (const JsonValue *m = v.find("pathIndex")) {
        if (!m->isU64() || m->asU64() > kMaxPathIndex)
            return failCodec(err, "bad_path_index",
                             "'pathIndex' must be an integer in 0.." +
                                 std::to_string(kMaxPathIndex));
        path = m->asU64();
    }
    spec.request.pathIndex = static_cast<uint32_t>(path);

    if (const JsonValue *m = v.find("seed")) {
        if (!m->isU64() || m->asU64() == 0)
            return failCodec(err, "bad_seed",
                             "'seed' must be a positive integer");
        spec.request.seed = m->asU64();
    }

    if (const JsonValue *m = v.find("backends")) {
        if (!m->isArray() || m->size() == 0)
            return failCodec(err, "bad_request",
                             "'backends' must be a non-empty array");
        spec.request.runLsq = false;
        spec.request.runSw = false;
        spec.request.runNachos = false;
        for (size_t i = 0; i < m->size(); ++i) {
            const JsonValue &b = m->at(i);
            if (!b.isString())
                return failCodec(err, "bad_request",
                                 "'backends' entries must be strings");
            if (b.str() == "lsq")
                spec.request.runLsq = true;
            else if (b.str() == "sw")
                spec.request.runSw = true;
            else if (b.str() == "nachos")
                spec.request.runNachos = true;
            else
                return failCodec(err, "bad_request",
                                 "unknown backend '" + b.str() +
                                     "' (expected lsq|sw|nachos)");
        }
    }

    if (const JsonValue *m = v.find("pipeline")) {
        if (!m->isObject())
            return failCodec(err, "bad_request",
                             "'pipeline' must be an object");
        if (!checkMembers(*m, {"stage2", "stage3", "stage4"}, err))
            return false;
        auto stage = [&](const char *name, bool &flag) {
            if (const JsonValue *s = m->find(name)) {
                if (!s->isBool())
                    return failCodec(err, "bad_request",
                                     std::string("'pipeline.") + name +
                                         "' must be a bool");
                flag = s->boolean();
            }
            return true;
        };
        if (!stage("stage2", spec.request.pipeline.stage2) ||
            !stage("stage3", spec.request.pipeline.stage3) ||
            !stage("stage4", spec.request.pipeline.stage4))
            return false;
    }

    uint64_t invocations = 0;
    if (!getU64Member(v, "invocations", invocations, err))
        return false;
    if (invocations > kMaxInvocationsOverride)
        return failCodec(err, "bad_request",
                         "'invocations' exceeds the " +
                             std::to_string(kMaxInvocationsOverride) +
                             " cap");
    spec.request.invocationsOverride = invocations;

    if (const JsonValue *m = v.find("machine")) {
        if (!decodeMachineOverrides(*m, spec.request.machine, err))
            return false;
    }

    // 'batchSim' selected the batched engine and 'fusion' toggled
    // macro-op fusion; both mechanisms are gone. Each is accepted
    // (still typed) and ignored for protocol v1 (DESIGN §9.1).
    for (const char *retired : {"batchSim", "fusion"}) {
        if (const JsonValue *m = v.find(retired)) {
            if (!m->isBool())
                return failCodec(err, "bad_request",
                                 std::string("'") + retired +
                                     "' must be a bool");
        }
    }

    if (!getU64Member(v, "timeoutMillis", spec.timeoutMillis, err))
        return false;
    if (!getU64Member(v, "sleepMillis", spec.sleepMillis, err))
        return false;
    if (spec.sleepMillis > 60'000)
        return failCodec(err, "bad_request",
                         "'sleepMillis' exceeds the 60000 cap");

    if (const JsonValue *m = v.find("class")) {
        if (!m->isString())
            return failCodec(err, "bad_request",
                             "'class' must be a string");
        if (m->str() == "interactive")
            spec.klass = AdmitClass::Interactive;
        else if (m->str() == "bulk")
            spec.klass = AdmitClass::Bulk;
        else
            return failCodec(err, "bad_request",
                             "unknown class '" + m->str() +
                                 "' (expected interactive|bulk)");
    }
    return true;
}

JsonValue
encodeRunRequest(const JobSpec &spec)
{
    JsonValue v = JsonValue::makeObject();
    v.set("workload", spec.info ? spec.info->name : "");
    v.set("pathIndex", static_cast<uint64_t>(spec.request.pathIndex));
    v.set("seed", spec.request.seed);
    JsonValue backends = JsonValue::makeArray();
    if (spec.request.runLsq)
        backends.push("lsq");
    if (spec.request.runSw)
        backends.push("sw");
    if (spec.request.runNachos)
        backends.push("nachos");
    v.set("backends", std::move(backends));
    JsonValue pipeline = JsonValue::makeObject();
    pipeline.set("stage2", spec.request.pipeline.stage2);
    pipeline.set("stage3", spec.request.pipeline.stage3);
    pipeline.set("stage4", spec.request.pipeline.stage4);
    v.set("pipeline", std::move(pipeline));
    v.set("invocations", spec.request.invocationsOverride);
    if (spec.request.machine.any())
        v.set("machine", encodeMachineOverrides(spec.request.machine));
    if (spec.timeoutMillis)
        v.set("timeoutMillis", spec.timeoutMillis);
    if (spec.sleepMillis)
        v.set("sleepMillis", spec.sleepMillis);
    if (spec.klass == AdmitClass::Bulk)
        v.set("class", "bulk");
    return v;
}

OutcomeSummary
summarizeOutcome(const BenchmarkInfo &info, const RunRequest &request,
                 const RunOutcome &outcome)
{
    return summarizeOutcome(info, request, outcome.analysis,
                            outcome.mdes,
                            outcome.lsq ? &*outcome.lsq : nullptr,
                            outcome.sw ? &*outcome.sw : nullptr,
                            outcome.nachos ? &*outcome.nachos : nullptr);
}

OutcomeSummary
summarizeOutcome(const BenchmarkInfo &info, const RunRequest &request,
                 const AliasAnalysisResult &analysis, const MdeSet &mdes,
                 const SimResult *lsq, const SimResult *sw,
                 const SimResult *nachos)
{
    OutcomeSummary s;
    s.workload = info.name;
    s.pathIndex = request.pathIndex;
    s.seed = request.seed;
    s.invocations = request.invocationsOverride
                        ? request.invocationsOverride
                        : info.invocations;
    s.labels = analysis.final().all;
    s.enforced = analysis.final().enforced;
    for (const Mde &edge : mdes.edges()) {
        switch (edge.kind) {
          case MdeKind::Order: ++s.mdeOrder; break;
          case MdeKind::Forward: ++s.mdeForward; break;
          case MdeKind::May: ++s.mdeMay; break;
        }
    }
    if (lsq)
        s.lsq = summarizeSim(*lsq);
    if (sw)
        s.sw = summarizeSim(*sw);
    if (nachos)
        s.nachos = summarizeSim(*nachos);
    return s;
}

JsonValue
encodeOutcome(const OutcomeSummary &summary)
{
    JsonValue v = JsonValue::makeObject();
    v.set("workload", summary.workload);
    v.set("pathIndex", static_cast<uint64_t>(summary.pathIndex));
    v.set("seed", summary.seed);
    v.set("invocations", summary.invocations);
    v.set("labels", encodePairCounts(summary.labels));
    v.set("enforced", encodePairCounts(summary.enforced));
    JsonValue mdes = JsonValue::makeObject();
    mdes.set("order", summary.mdeOrder);
    mdes.set("forward", summary.mdeForward);
    mdes.set("may", summary.mdeMay);
    v.set("mdes", std::move(mdes));
    JsonValue backends = JsonValue::makeObject();
    if (summary.lsq)
        backends.set("lsq", encodeSimSummary(*summary.lsq));
    if (summary.sw)
        backends.set("sw", encodeSimSummary(*summary.sw));
    if (summary.nachos)
        backends.set("nachos", encodeSimSummary(*summary.nachos));
    v.set("backends", std::move(backends));
    return v;
}

namespace {

void
encodePairCountsTo(JsonWriter &w, const PairCounts &counts)
{
    w.beginObject();
    w.key("no");
    w.value(counts.no);
    w.key("may");
    w.value(counts.may);
    w.key("must");
    w.value(counts.must);
    w.endObject();
}

void
encodeSimSummaryTo(JsonWriter &w, const SimSummary &s)
{
    w.beginObject();
    w.key("cycles");
    w.value(s.cycles);
    w.key("cyclesPerInvocation");
    w.value(s.cyclesPerInvocation);
    w.key("maxMlp");
    w.value(s.maxMlp);
    w.key("avgMlp");
    w.value(s.avgMlp);
    w.key("loadValueDigest");
    w.value(s.loadValueDigest);
    w.key("energyTotal");
    w.value(s.energyTotal);
    w.endObject();
}

} // namespace

void
encodeOutcomeTo(JsonWriter &w, const OutcomeSummary &summary)
{
    // Member order mirrors encodeOutcome exactly: the daemon's golden
    // tests compare these bytes against dumpJson(encodeOutcome(...)).
    w.beginObject();
    w.key("workload");
    w.value(summary.workload);
    w.key("pathIndex");
    w.value(static_cast<uint64_t>(summary.pathIndex));
    w.key("seed");
    w.value(summary.seed);
    w.key("invocations");
    w.value(summary.invocations);
    w.key("labels");
    encodePairCountsTo(w, summary.labels);
    w.key("enforced");
    encodePairCountsTo(w, summary.enforced);
    w.key("mdes");
    w.beginObject();
    w.key("order");
    w.value(summary.mdeOrder);
    w.key("forward");
    w.value(summary.mdeForward);
    w.key("may");
    w.value(summary.mdeMay);
    w.endObject();
    w.key("backends");
    w.beginObject();
    if (summary.lsq) {
        w.key("lsq");
        encodeSimSummaryTo(w, *summary.lsq);
    }
    if (summary.sw) {
        w.key("sw");
        encodeSimSummaryTo(w, *summary.sw);
    }
    if (summary.nachos) {
        w.key("nachos");
        encodeSimSummaryTo(w, *summary.nachos);
    }
    w.endObject();
    w.endObject();
}

JsonValue
encodeRunOutcome(const BenchmarkInfo &info, const RunRequest &request,
                 const RunOutcome &outcome)
{
    return encodeOutcome(summarizeOutcome(info, request, outcome));
}

bool
decodeOutcome(const JsonValue &v, OutcomeSummary &summary,
              CodecError &err)
{
    if (!v.isObject())
        return failCodec(err, "bad_request",
                         "outcome must be an object");
    if (!checkMembers(v,
                      {"workload", "pathIndex", "seed", "invocations",
                       "labels", "enforced", "mdes", "backends"},
                      err))
        return false;
    const JsonValue *workload = v.find("workload");
    if (!workload || !workload->isString())
        return failCodec(err, "bad_request",
                         "'workload' (string) is required");
    summary.workload = workload->str();
    uint64_t path = 0;
    if (!getU64Member(v, "pathIndex", path, err) ||
        !getU64Member(v, "seed", summary.seed, err) ||
        !getU64Member(v, "invocations", summary.invocations, err))
        return false;
    summary.pathIndex = static_cast<uint32_t>(path);
    if (!decodePairCounts(v.find("labels"), summary.labels, err) ||
        !decodePairCounts(v.find("enforced"), summary.enforced, err))
        return false;
    const JsonValue *mdes = v.find("mdes");
    if (!mdes || !mdes->isObject() ||
        !checkMembers(*mdes, {"order", "forward", "may"}, err))
        return failCodec(err, err.code.empty() ? "bad_request" : err.code,
                         err.message.empty() ? "'mdes' object missing"
                                             : err.message);
    if (!getU64Member(*mdes, "order", summary.mdeOrder, err) ||
        !getU64Member(*mdes, "forward", summary.mdeForward, err) ||
        !getU64Member(*mdes, "may", summary.mdeMay, err))
        return false;
    const JsonValue *backends = v.find("backends");
    if (!backends || !backends->isObject())
        return failCodec(err, "bad_request", "'backends' object missing");
    if (!checkMembers(*backends, {"lsq", "sw", "nachos"}, err))
        return false;
    auto backend = [&](const char *name,
                       std::optional<SimSummary> &slot) {
        if (const JsonValue *b = backends->find(name)) {
            SimSummary s;
            if (!decodeSimSummary(*b, s, err))
                return false;
            slot = s;
        }
        return true;
    };
    return backend("lsq", summary.lsq) && backend("sw", summary.sw) &&
           backend("nachos", summary.nachos);
}

} // namespace nachos
