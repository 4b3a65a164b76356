#!/usr/bin/env python3
"""Steadiness check: run each workload as two separate sets of runs.

    python3 perfbench/steady.py [--workloads road,scalefree,serve]
        [--runs 10] [--sets 2] [--seconds 20] [--seed-base 1000]

Every run gets its own seed. For each workload, set and end-to-end
metric it prints the median, the quartiles and the quartile spread as a
share of the median (statistics.quantiles(values, n=4)), then the shift
of the median from the first set to the last, both set against the
metric's bound in BENCHMARK.json, and the share of failed operations.

A spread wider than a third of the bound marks the benchmark not steady,
for every metric but `setup_s`: each run times one cold set-up, a few
milliseconds on `road` and `serve` that move with thread start-up on the
host (README, "Today's medians"), so its spread is printed and marked
but only its median shift between sets is gated.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    for wi, workload in enumerate(args.workloads.split(",")):
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.seed_base + 1000 * wi + 100 * s + r
                res = run_once(workload, seed, args.seconds)
                if not res["correct"]:
                    print(f"{workload} seed {seed}: incorrect outputs")
                    steady = False
                runs.append(res)
                print(f"  {workload} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                    flush=True)
            sets.append(runs)
        print(f"== {workload}")
        for name, m in metrics.items():
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                ok = spread <= m["bound"] / 3
                gated = name != "setup_s"
                steady &= ok or not gated
                mark = "" if ok else "  TOO WIDE" if gated else "  wide (not gated)"
                print(f"{name:18s} set {s}: median {med:.5g} {m['unit']}, "
                      f"q1 {q1:.5g}, q3 {q3:.5g}, spread {spread:6.1%} "
                      f"(bound {m['bound']:.0%}){mark}")
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medians[-1] - medians[0]) / medians[0]
            ok = worse <= m["bound"]
            steady &= ok
            print(f"{name:18s} median shift {worse:+.1%} (worse is +)"
                  f"{'' if ok else '  BEYOND BOUND'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        print(f"failed share per set: {shares}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
