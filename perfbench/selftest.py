#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark: output schema, fingerprints, CLI.

    python3 perfbench/selftest.py

Runs every workload at --size tiny, untraced and traced, at the default seed
(so the harness compares each against its committed tiny fingerprint), and
checks that the JSON result line names exactly the metrics BENCHMARK.json
declares, with their units. Then checks that malformed command lines are
usage errors that print no result. Takes about half a minute after the
harness is built; exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run(args):
    return subprocess.run([sys.executable, RUN] + args, capture_output=True, text=True,
                          check=False)


def fail(why):
    sys.exit(f"selftest: FAIL: {why}")


def check_result(spec, workload, trace):
    out = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--size", "tiny"])
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: {result}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics {got} != declared {want}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"{workload}: metric {name} malformed: {m}")
    print(f"ok  {workload} trace={trace}: {result['attempted']} runs, "
          f"{len(got)} metrics, fingerprint matched")


def check_usage_error(args):
    out = run(args)
    if out.returncode == 0 or out.stdout.strip().endswith("}"):
        fail(f"{args} was accepted (exit {out.returncode})")
    print(f"ok  rejected {args}")


def main():
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_usage_error(["--workload", "no_such_workload"])
    check_usage_error(["--workload", "table51", "--seed", "abc"])
    check_usage_error(["--workload", "table51", "--seconds", "1x"])
    check_usage_error(["--workload", "table51", "--seed", "1", "--seed", "2"])
    check_usage_error(["--workload", "table51", "--trace", "2"])
    check_usage_error(["--workload", "table51", "--bogus", "1"])
    check_usage_error(["--workload"])
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
