#include "harness/runner.hh"

#include <chrono>

namespace nachos {

SimConfig
simConfigFor(const BenchmarkInfo &info, const RunRequest &request)
{
    SimConfig sim;
    sim.invocations = request.invocationsOverride
                          ? request.invocationsOverride
                          : info.invocations;
    request.machine.applyTo(sim);
    return sim;
}

RunOutcome
runWorkload(const BenchmarkInfo &info, const RunRequest &request,
            StageTimes &times)
{
    using clock = std::chrono::steady_clock;
    clock::time_point mark = clock::now();
    auto lap = [&mark] {
        const clock::time_point prev = mark;
        mark = clock::now();
        return std::chrono::duration<double>(mark - prev).count();
    };

    SynthesisOptions synth;
    synth.pathIndex = request.pathIndex;
    synth.seed = request.seed;

    RunOutcome out;
    out.region = synthesizeRegion(info, synth);
    times.synthSeconds = lap();
    out.analysis = runAliasPipeline(out.region, request.pipeline);
    times.analysisSeconds = lap();
    out.mdes = insertMdes(out.region, out.analysis.matrix);
    times.mdeSeconds = lap();

    const SimConfig sim = simConfigFor(info, request);
    // Worker-thread-local hierarchy pool: suite runs otherwise pay an
    // LLC-array construction per backend. The backends share one
    // compiled placement and firing tables.
    thread_local HierarchyPool pool;
    const CompiledRegion compiled(out.region, sim.grid, sim.net);
    if (request.runLsq)
        out.lsq = simulate(compiled, out.mdes, BackendKind::OptLsq, sim,
                           pool);
    if (request.runSw)
        out.sw = simulate(compiled, out.mdes, BackendKind::NachosSw, sim,
                          pool);
    if (request.runNachos)
        out.nachos = simulate(compiled, out.mdes, BackendKind::Nachos,
                              sim, pool);
    times.simSeconds = lap();
    return out;
}

RunOutcome
runWorkload(const BenchmarkInfo &info, const RunRequest &request)
{
    StageTimes times;
    return runWorkload(info, request, times);
}

RunOutcome
analyzeRegion(Region region, const PipelineConfig &pipeline)
{
    RunOutcome out;
    out.region = std::move(region);
    out.analysis = runAliasPipeline(out.region, pipeline);
    out.mdes = insertMdes(out.region, out.analysis.matrix);
    return out;
}

double
pctDelta(double base, double x)
{
    return base == 0 ? 0 : (x - base) / base * 100.0;
}

} // namespace nachos
