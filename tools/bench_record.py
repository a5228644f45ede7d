#!/usr/bin/env python3
"""Record the repository benchmark in BENCH_suite.json, or check against it.

    python3 tools/bench_record.py record [FILE]
    python3 tools/bench_record.py check [FILE]

FILE defaults to BENCH_suite.json at the root of the checkout.

record runs perfbench/run.py RUNS times per BENCHMARK.json workload
(untraced, `run_seconds` each) and once traced, then rewrites FILE with
one record per workload: the git SHA of HEAD and whether the tree held
uncommitted changes on top of it, perfbench's `# ` host lines, both
commands, the median and min of every end-to-end metric, and the traced
run's model.fingerprint and cgra.allocs_per_sim. Run it on a quiet host
and commit FILE with the change that moved the numbers: the before and
after of a change is then a diff of one file.

check does the same short traced run per workload and exits 1 if a
model.fingerprint differs from FILE's or a cgra.allocs_per_sim is
higher, the two deterministic counters perfbench's selftest shows
repeat exactly for a seed. It prints the wall-time metrics beside the
recorded medians, report-only: timing never fails the check. Exits 2
when perfbench cannot run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 5
SEED = 1
COUNTER_SECONDS = 3
GATED = ("model.fingerprint", "cgra.allocs_per_sim")
HOST_PREFIXES = ("# git:", "# host:", "# run:", "# WARNING: NON-OPTIMISED")


def perfbench(workload, seconds, trace):
    """Run perfbench once; return (command, `# ` lines, result)."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    print("bench_record: " + " ".join(cmd), file=sys.stderr, flush=True)
    r = subprocess.run([sys.executable] + cmd[1:], cwd=ROOT,
                       stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        print("bench_record: perfbench exited %d" % r.returncode,
              file=sys.stderr)
        sys.exit(r.returncode or 2)
    return " ".join(cmd), lines[:-1], json.loads(lines[-1])


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args),
                          capture_output=True, text=True).stdout


def record(path, spec):
    rel = os.path.relpath(path, ROOT)
    sha = git("rev-parse", "HEAD").strip()
    dirty = any(l[3:] != rel
                for l in git("status", "--porcelain").splitlines())
    records = []
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = []
        for _ in range(RUNS):
            command, lines, result = perfbench(name, spec["run_seconds"], 0)
            runs.append(result["metrics"])
        host = [l for l in lines if l.startswith(HOST_PREFIXES)]
        counters_command, _, traced = perfbench(name, COUNTER_SECONDS, 1)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            metrics[m["name"]] = {"unit": m["unit"],
                                  "median": statistics.median(values),
                                  "min": min(values)}
        records.append({
            "workload": name,
            "git_sha": sha,
            "uncommitted_changes": dirty,
            "host": host,
            "command": command,
            "runs": RUNS,
            "metrics": metrics,
            "counters_command": counters_command,
            "counters": {n: traced["metrics"][n]["value"] for n in GATED},
        })
    with open(path, "w") as f:
        json.dump(records, f, indent=2)
        f.write("\n")
    print("bench_record: wrote %s (%d workloads)" % (rel, len(records)))
    return 0


def check(path, spec):
    recorded = {r["workload"]: r for r in json.load(open(path))}
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        rec = recorded.get(name)
        if rec is None:
            print("FAIL  %s: no record in %s" % (name, path))
            ok = False
            continue
        _, lines, traced = perfbench(name, COUNTER_SECONDS, 1)
        got = {n: traced["metrics"][n]["value"] for n in GATED}
        want = rec["counters"]
        fp_ok = got["model.fingerprint"] == want["model.fingerprint"]
        alloc_ok = got["cgra.allocs_per_sim"] <= want["cgra.allocs_per_sim"]
        print("%s  %s: model.fingerprint %d, recorded %d" % (
            "ok  " if fp_ok else "FAIL", name, got["model.fingerprint"],
            want["model.fingerprint"]))
        print("%s  %s: cgra.allocs_per_sim %.6g, recorded %.6g" % (
            "ok  " if alloc_ok else "FAIL", name, got["cgra.allocs_per_sim"],
            want["cgra.allocs_per_sim"]))
        ok = ok and fp_ok and alloc_ok
        # A traced run prints its timings as `# <name> <value> <unit>`.
        timed = {l.split()[1]: " ".join(l.split()[2:4]) for l in lines
                 if len(l.split()) > 3}
        for n, m in rec["metrics"].items():
            now = "; this traced run " + timed[n] if n in timed else ""
            print("info  %s: %s recorded median %.4g %s (min %.4g, %d runs)%s"
                  % (name, n, m["median"], m["unit"], m["min"], rec["runs"],
                     now))
    print("counters match the record" if ok else
          "counters differ from the record: re-record if the change "
          "is intended")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("action", choices=("record", "check"))
    ap.add_argument("file", nargs="?",
                    default=os.path.join(ROOT, "BENCH_suite.json"))
    opts = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    path = os.path.abspath(opts.file)
    return (record if opts.action == "record" else check)(path, spec)


if __name__ == "__main__":
    sys.exit(main())
