#!/usr/bin/env python3
"""Traced run: per-layer metrics of one workload, and the tracing overhead.

    python3 perfbench/trace.py --workload road|scalefree|serve [--seed N]
        [--seconds S]

Runs the workload twice with the same seed, untraced (--trace 0) and
traced (--trace 1). Prints every per-layer metric with its unit, then
each end-to-end metric as measured untraced and traced, and their
difference: the tracing overhead. The spans of the traced run are
written to .bench_out/trace-<workload>.json (Chrome trace format).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"run failed with exit code {out.returncode}")
    return out.stdout.strip().splitlines()


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    plain = json.loads(run(args.workload, args.seed, args.seconds, 0)[-1])
    lines = run(args.workload, args.seed, args.seconds, 1)
    traced = json.loads(lines[-1])
    traced_e2e = next(json.loads(l.split(": ", 1)[1]) for l in lines
                      if l.startswith("traced end-to-end: "))
    print(f"workload {args.workload}, seed {args.seed}: correct "
          f"{plain['correct'] and traced['correct']}, attempted "
          f"{plain['attempted']} / {traced['attempted']}, failed "
          f"{plain['failed']} / {traced['failed']}")
    print("\nper-layer metrics (traced run)")
    for m in spec["per_layer"]:
        v = traced["metrics"][m["name"]]
        print(f"  {m['name']:42s} {v['value']:12.5g} {v['unit']}")
    print("\nend-to-end: untraced, traced, tracing overhead")
    for m in spec["end_to_end"]:
        a = plain["metrics"][m["name"]]["value"]
        b = traced_e2e[m["name"]]["value"]
        print(f"  {m['name']:18s} {a:12.5g} {b:12.5g} {(b - a) / a:+8.1%} {m['unit']}")
    for line in lines[:-1]:
        if line.startswith("spans: "):
            print("\n" + line)


if __name__ == "__main__":
    main()
