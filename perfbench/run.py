#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload suite|fuzz|serve --seed N \
        --seconds S --trace 0|1 [--inject-fault]

Run from the root of a checkout. The first run configures and builds
perfbench (its own CMake project, which compiles ../src) into
$CARGO_TARGET_DIR, else .bench_build. Later runs only re-check the
build. The last line of stdout is the JSON result; the lines before it
(prefixed `# `) hold host metadata, every timing with its sample count,
the model fingerprint and any failed check. Exits 1 when an output
check fails and 2 when the benchmark cannot run.

--trace 0 reports the end-to-end metrics. --trace 1 first runs the
untraced binary for a third of the time, then the traced binary for
the rest, and reports the per-layer metrics plus the tracing overhead:
the traced run's time per comparable unit of work over the untraced
run's.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "fuzz", "serve")
# One run must end within 180 s; the build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench", "perfbench_traced", "nachosd"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result.
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def fresh_copies(bdir):
    """Copy the built binaries into a new per-run directory.

    On a 4-vCPU Linux VM, the binary file the linker wrote ran the
    suite ~20% slower than any byte-identical copy of it, stably across
    runs: how the file's pages happen to be placed, not its code. Running fresh copies keeps that out of comparisons between
    builds.
    """
    rdir = os.path.join(bdir, "run-%d" % os.getpid())
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    for rel in ("perfbench", "perfbench_traced", os.path.join("bin",
                                                              "nachosd")):
        shutil.copy2(os.path.join(bdir, rel),
                     os.path.join(rdir, os.path.basename(rel)))
    return rdir


def run_binary(rdir, binary, args, seconds, deadline):
    """Run one perfbench binary; return (comment lines, result dict)."""
    cmd = [os.path.join(rdir, binary)] + args + [
        "--seconds", str(seconds),
        "--nachosd", os.path.join(rdir, "nachosd")]
    # cwd = the run directory: nachosd's socket lives there. A new
    # session lets a timeout stop the binary and its daemon together.
    proc = subprocess.Popen(cmd, cwd=rdir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(binary + " timed out")
    sys.stderr.write(err)
    lines = out.splitlines()
    if not lines:
        fail("%s printed nothing (exit %d)" % (binary, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("%s printed no result (exit %d)" % (binary, proc.returncode))
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one expected output: the run must fail")
    opts = ap.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    build(bdir)
    rdir = fresh_copies(bdir)
    try:
        return measure(opts, bdir, rdir)
    finally:
        shutil.rmtree(rdir, ignore_errors=True)


def measure(opts, bdir, rdir):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", opts.workload, "--seed", str(opts.seed)]
    if opts.inject_fault:
        base.append("--inject-fault")

    comments = ["git: " + git_sha()]
    if opts.trace == 0:
        lines, result = run_binary(rdir, "perfbench", base + ["--trace", "0"],
                                   opts.seconds, deadline)
        comments += lines
    else:
        plain_s = max(1, opts.seconds // 3)
        traced_s = max(1, opts.seconds - plain_s)
        trace_out = os.path.join(
            bdir, "trace-%s-%d.json" % (opts.workload, opts.seed))
        lines, plain = run_binary(
            rdir, "perfbench",
            base + ["--trace", "0"], plain_s, deadline)
        comments += ["untraced reference run: " + l.lstrip("# ")
                     for l in lines if "CHECK FAILED" in l]
        lines, result = run_binary(
            rdir, "perfbench_traced",
            base + ["--trace", "1", "--trace-out", trace_out], traced_s,
            deadline)
        comments += lines
        untraced, traced = plain["unit_ms"], result["unit_ms"]
        overhead = 100.0 * (traced - untraced) / untraced if untraced else 0
        comments.append("tracing overhead: %.4f ms traced vs %.4f ms "
                        "untraced per unit of work = %+.2f%%" %
                        (traced, untraced, overhead))
        result["metrics"]["bench.trace_overhead_pct"] = {
            "value": overhead, "unit": "%"}
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        result["correct"] = result["correct"] and plain["correct"]

    for line in comments:
        print(line if line.startswith("#") else "# " + line)
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "metrics": result["metrics"]}
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
