#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--seeds 1,2,3] [--seconds 25]
                                [--trace 0|1] [--out results.jsonl]

For every metric it prints the median and the quartile spread
(Q3 - Q1) / median of the per-seed values, as statistics.quantiles(n=4)
computes them. Each raw result line is appended to --out when given, so two
commits can be compared run by run (see README.md, "Claiming a gain").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()

    values = {}
    for seed in [int(s) for s in args.seeds.split(",")]:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':34} {'median':>14} {'spread':>8}  n")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            spread = f"{'-':>8}"
        print(f"{name:34} {med:14.6g} {spread}  {len(vs)}")


if __name__ == "__main__":
    main()
