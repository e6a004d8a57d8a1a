#!/usr/bin/env python3
"""Runs the service benchmark on several seeds and prints each metric's spread.

Usage, from the root of a checkout:
    python3 servebench/spread.py [--workloads a,b] [--seeds 1-10]
                                 [--seconds S] [--trace 0|1]

For every workload it runs servebench/run.py once per seed, one after the
other, and prints per metric the median, the first and third quartiles
(statistics.quantiles, n=4), the interquartile range as a share of the
median, and — for end-to-end metrics — the bound BENCHMARK.json allows.
Each run's result line is appended to .bench_build/spread.jsonl and its
stderr is kept in .bench_build/spread-logs/<workload>-<seed>.err.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    log_path = os.path.join(out_root, "spread.jsonl")
    log_dir = os.path.join(out_root, "spread-logs")
    os.makedirs(log_dir, exist_ok=True)

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            err_path = os.path.join(log_dir, f"{workload}-{seed}.err")
            with open(err_path, "w") as err:
                proc = subprocess.run(
                    [sys.executable, "servebench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    stdout=subprocess.PIPE, stderr=err, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{workload} seed {seed}: no result (exit {proc.returncode})")
                ok = False
                continue
            with open(log_path, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
            ok &= proc.returncode == 0 and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            print(f"{workload:20s} {name:42s} median={med:<14.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} iqr/median={spread:.3f}"
                  + (f" bound={bound}" if bound is not None else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
