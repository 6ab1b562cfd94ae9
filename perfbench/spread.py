#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload rpc --seeds 10 [--seconds 10] [--trace 0]

Run it from the repository root. For every metric of the JSON result line
it prints the median over the runs and the distance between the first and
third quartile as a share of the median, and, for end-to-end metrics, the
bound from BENCHMARK.json that the spread must stay within.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {lines[-1]}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"\n{'metric':32} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above bound/3"
        print(f"{name:32} {med:12.5g} {spread:10.3f} {'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
