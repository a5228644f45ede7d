/**
 * @file
 * perfbench: one workload of the repository benchmark per run.
 *
 *   perfbench --workload suite|fuzz|serve --seed N --seconds S
 *             --trace 0|1 [--nachosd PATH] [--trace-out PATH]
 *             [--inject-fault]
 *
 * Prints human-readable `# ` lines (host metadata, every timing with
 * its sample count, the model fingerprint, failed checks), then one
 * JSON result line. Exits 1 when any output check failed. Normally
 * started by run.py, which builds it and picks the traced binary.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hh"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload suite|fuzz|serve --seed N "
                 "--seconds S --trace 0|1 [--nachosd PATH] [--trace-out "
                 "PATH] [--inject-fault]\n";
    std::exit(2);
}

uint64_t
parseCount(const std::string &flag, const char *v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0')
        usage("bad value for " + flag + ": " + v);
    return n;
}

bool
optimisedBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

} // namespace

int
main(int argc, char *argv[])
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opts.workload = value();
        else if (arg == "--seed")
            opts.seed = parseCount(arg, value());
        else if (arg == "--seconds")
            opts.seconds = static_cast<double>(parseCount(arg, value()));
        else if (arg == "--trace")
            opts.trace = parseCount(arg, value()) != 0;
        else if (arg == "--nachosd")
            opts.nachosd = value();
        else if (arg == "--trace-out")
            opts.traceOut = value();
        else if (arg == "--inject-fault")
            opts.injectFault = true;
        else
            usage("unknown argument " + arg);
    }
    if (opts.seconds <= 0)
        usage("--seconds must be positive");
    if (opts.trace && !perfbench::allocCountingEnabled())
        usage("--trace 1 needs the traced binary (perfbench_traced)");

    perfbench::Report rep;
    rep.line("host: nproc " +
             std::to_string(std::thread::hardware_concurrency()) +
             ", compiler " + __VERSION__ + ", CMAKE_BUILD_TYPE " +
             PERFBENCH_BUILD_TYPE);
    rep.line("run: workload " + opts.workload + ", seed " +
             std::to_string(opts.seed) + ", seconds " +
             std::to_string(opts.seconds) + ", trace " +
             (opts.trace ? "1" : "0"));
    if (!optimisedBuild()) {
        const char *warn =
            "WARNING: NON-OPTIMISED BUILD (no -O or no NDEBUG): these "
            "timings say nothing about the program's speed";
        rep.line(warn);
        std::cerr << warn << "\n";
    }
    if (opts.injectFault)
        rep.line("fault injected: one expected output is corrupted, so "
                 "the checks must fail");

    if (opts.workload == "suite")
        perfbench::runSuiteWorkload(opts, rep);
    else if (opts.workload == "fuzz")
        perfbench::runFuzzWorkload(opts, rep);
    else if (opts.workload == "serve")
        perfbench::runServeWorkload(opts, rep);
    else
        usage("unknown workload '" + opts.workload + "'");
    return rep.finish();
}
