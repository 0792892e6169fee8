#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs every workload of BENCHMARK.json once per seed, untraced, and reports
for each end-to-end metric the median of the runs and the distance between
their first and third quartiles as a share of that median (the spread the
bounds in BENCHMARK.json are derived from). Writes the figures, with the
machine they were taken on, to perfbench/SPREAD.json.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default="perfbench/SPREAD.json")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            report["machine"] = json.loads(lines[0])["machine"]
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: outputs were not correct")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "spread": round(spread, 4), "bound": bounds[name], "values": vals}
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  <-- above a third of its bound"
            print(f"{workload:12} {name:15} median {med:14.4f}  spread {spread:7.2%}  bound {bounds[name]:.2f}{flag}", flush=True)
        report["workloads"][workload] = rows
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
