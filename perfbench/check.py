#!/usr/bin/env python3
"""Checks of the benchmark itself, run from the repository root.

    python3 perfbench/check.py spread WORKLOAD [--seeds 1,2,...]
        Runs WORKLOAD once per seed and prints, for every end-to-end
        metric, the median and the spread (quartile distance over median)
        against the bound in BENCHMARK.json.

    python3 perfbench/check.py sensitivity [--pairs N]
        The sensitivity control: runs steady-mix in pairs, the servers on
        their default backend and on DETLOCK_BACKEND=threaded, same seed
        in each pair, alternating which side runs first. Passes when
        capacity_jps and p50_ms_low separate by more than their bounds in
        every pair.
"""

import argparse
import json
import statistics
import subprocess
import sys


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, extra=()):
    b = bench()
    cmd = b["command"] + ["--workload", workload, "--seed", str(seed),
                          "--seconds", str(b["run_seconds"]), "--trace", "0"]
    cmd += list(extra)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(args):
    bounds = {m["name"]: m["bound"] for m in bench()["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = []
    for seed in seeds:
        runs.append(run_once(args.workload, seed))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
              file=sys.stderr, flush=True)
    worst = 0.0
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        share = (q3 - q1) / med if med else 0.0
        if name != "setup_s":
            worst = max(worst, share / bound)
        print(f"{args.workload:20s} {name:14s} median {med:10.4f} spread {share:7.4f} "
              f"bound {bound:5.3f} ({share / bound:5.2f} of bound)")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


def sensitivity(args):
    bounds = {m["name"]: m["bound"] for m in bench()["end_to_end"]}
    threaded = ["--server-env", "DETLOCK_BACKEND=threaded"]
    ok = True
    for i in range(args.pairs):
        seed = 100 + i
        if i % 2 == 0:
            base = run_once("steady-mix", seed)
            fast = run_once("steady-mix", seed, threaded)
        else:
            fast = run_once("steady-mix", seed, threaded)
            base = run_once("steady-mix", seed)
        for name, better in [("capacity_jps", "higher"), ("p50_ms_low", "lower")]:
            change = fast[name] / base[name] - 1
            gain = change if better == "higher" else -change
            separated = gain > bounds[name]
            ok &= separated
            print(f"pair {i} seed {seed}: {name} default {base[name]:.4f} threaded "
                  f"{fast[name]:.4f} ({change:+.1%}; bound {bounds[name]:.0%}) "
                  f"{'separated' if separated else 'NOT separated'}", flush=True)
    print("sensitivity control:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("workload")
    s.add_argument("--seeds", default="1,2,3,4,5")
    t = sub.add_parser("sensitivity")
    t.add_argument("--pairs", type=int, default=5)
    args = p.parse_args()
    if args.cmd == "spread":
        spread(args)
        return 0
    return sensitivity(args)


if __name__ == "__main__":
    sys.exit(main())
