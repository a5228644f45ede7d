#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--workloads suite,fuzz,serve]

For each workload:
  * a short untraced run and a short traced run finish, exit 0, and
    print exactly the end-to-end (resp. per-layer) metrics named in
    BENCHMARK.json, each a finite number with its declared unit;
  * a second traced run with the same seed repeats every modelled
    count, the model fingerprint and the allocation counts exactly;
  * a run with --inject-fault (one expected output corrupted; for fuzz,
    the fuzzer's own drop-order fault) exits non-zero and reports
    failed operations: a checker that cannot fail verifies nothing.
Finally, run.py in a directory that holds only BENCHMARK.json and
perfbench/ must exit non-zero without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 424242
# Per-layer metrics that must repeat exactly for one seed.
EXACT = ("analysis.allocs", "cgra.allocs_per_sim", "cgra.cycles.lsq",
         "cgra.cycles.sw", "cgra.cycles.nachos", "cgra.net_hops",
         "mem.l1_miss_ratio", "mem.llc_misses", "lsq.cam_searches",
         "lsq.bloom_hit_ratio", "nachos.may_checks", "nachos.clear_ratio",
         "mde.order_tokens", "mde.forwards", "model.fingerprint")


def run(root, args):
    r = subprocess.run([sys.executable, os.path.join(root, "perfbench",
                                                     "run.py")] + args,
                       cwd=root, capture_output=True, text=True, timeout=900)
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result, r.stdout + r.stderr


class Checker:
    def __init__(self):
        self.failures = 0

    def expect(self, cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            self.failures += 1
        return cond


def check_metrics(c, result, declared, what):
    got = result["metrics"] if result else {}
    c.expect(set(got) == {m["name"] for m in declared},
             what + ": metric names match BENCHMARK.json")
    for m in declared:
        v = got.get(m["name"], {})
        c.expect(isinstance(v.get("value"), (int, float)) and
                 math.isfinite(v["value"]) and v.get("unit") == m["unit"],
                 "%s: %s = %s %s" % (what, m["name"], v.get("value"),
                                     v.get("unit")))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    opts = ap.parse_args()
    c = Checker()

    for wl in opts.workloads.split(","):
        base = ["--workload", wl, "--seed", str(SEED), "--seconds", "2"]
        code, result, _ = run(ROOT, base + ["--trace", "0"])
        c.expect(code == 0 and result and result["correct"] and
                 result["failed"] == 0 and result["attempted"] >= 1,
                 wl + ": untraced run is correct")
        check_metrics(c, result, spec["end_to_end"], wl + " untraced")

        code, traced, _ = run(ROOT, base + ["--trace", "1"])
        c.expect(code == 0 and traced and traced["correct"],
                 wl + ": traced run is correct")
        check_metrics(c, traced, spec["per_layer"], wl + " traced")
        code, again, _ = run(ROOT, base + ["--trace", "1"])
        for name in EXACT:
            a = traced["metrics"].get(name) if traced else None
            b = again["metrics"].get(name) if again else None
            c.expect(a is not None and a == b,
                     "%s: %s repeats exactly (%s, %s)" % (
                         wl, name, a and a["value"], b and b["value"]))

        code, broken, out = run(ROOT, base + ["--trace", "0",
                                              "--inject-fault"])
        c.expect(code != 0 and broken is not None and
                 not broken["correct"] and broken["failed"] > 0,
                 wl + ": a corrupted expected output fails the run")

    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(bare, ["--workload", "suite", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"])
    c.expect(code != 0 and result is None,
             "without the program's sources run.py fails, printing no "
             "result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % c.failures if c.failures else
          "all checks passed")
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
