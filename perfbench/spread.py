#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload gsrc_verify --seeds 1-10 \
        [--seconds 20] [--trace 0] [--save perfbench/baseline.json]

For every metric of the JSON result line it prints the median, the
quartiles (statistics.quantiles, n=4) and the interquartile range as a share
of the median, next to the metric's bound from BENCHMARK.json. With --save
it also records those figures under the workload's name in a JSON file
(other workloads already in the file are kept). Run it from the repository
root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--save")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    here = os.path.dirname(os.path.abspath(__file__))

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of the bound"
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "values": vals}

    if args.save:
        saved = {}
        if os.path.exists(args.save):
            with open(args.save) as f:
                saved = json.load(f)
        key = args.workload if args.trace == "0" else f"{args.workload} (traced)"
        saved[key] = {"seeds": args.seeds, "seconds": seconds, "metrics": summary}
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
