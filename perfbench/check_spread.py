#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/check_spread.py [--workloads suite,fuzz,serve]
        [--runs 10] [--first-seed 1000] [--seconds S]

Runs the benchmark `--runs` times per workload, each with another
seed, and prints for every end-to-end metric its median and the
distance between its first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)). A spread above a third of
the metric's bound in BENCHMARK.json is flagged. Exits 1 if any run
fails or any spread, setup_s included, exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    opts = ap.parse_args()

    ok = True
    for wl in opts.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 wl, "--seed", str(seed), "--seconds", str(opts.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            result = json.loads(r.stdout.splitlines()[-1]) if r.stdout else {}
            if r.returncode != 0 or not result.get("correct"):
                print("%s seed %d FAILED (exit %d)" % (wl, seed, r.returncode))
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (wl, seed, " ".join(
                "%s=%.5g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok"
            if spread > m["bound"]:
                flag, ok = "OVER BOUND", False
            elif spread > m["bound"] / 3:
                flag = "over a third of bound"
            print("%-8s %-14s median %12.5g  spread %6.2f%%  bound %4.0f%%  %s"
                  % (wl, m["name"], med, 100 * spread, 100 * m["bound"], flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
