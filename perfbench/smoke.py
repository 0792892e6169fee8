#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale.

For every workload of BENCHMARK.json, runs the benchmark untraced and traced
with `--scale tiny` and checks that:

* the last line is one JSON object with exactly the keys correct, attempted,
  failed and metrics, that every correctness gate passed (correct, no failed
  operation, error_rate 0) and that attempted is at least 1;
* every end-to-end metric (untraced) or per-layer metric (traced) named in
  BENCHMARK.json is there, finite, and carries its declared unit;
* the traced run wrote its spans, each with name, start, end, parent and
  operation id.

It also checks that `--workload all` prints every metric of every workload,
and that an unknown workload fails without printing a result.

    python3 perfbench/smoke.py

Run from the root of the repository. Exits non-zero on the first failure.
"""

import json
import math
import subprocess
import sys


def run(bench, *args):
    cmd = bench["command"] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True)


def check(cond, what):
    if not cond:
        sys.exit(f"smoke: FAILED: {what}")


def check_result(line, declared, where):
    result = json.loads(line)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{where}: correct is {result['correct']}")
    check(result["failed"] == 0, f"{where}: {result['failed']} failed operations")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted {result['attempted']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    check(set(got) == set(want), f"{where}: metrics differ: missing {set(want) - set(got)}, extra {set(got) - set(want)}")
    for name, m in got.items():
        check(set(m) == {"value", "unit"}, f"{where}: {name} keys {sorted(m)}")
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{where}: {name} = {m['value']}")
        check(m["unit"] == want[name], f"{where}: {name} unit {m['unit']} != {want[name]}")


def main():
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        name = w["name"]
        for trace in ("0", "1"):
            where = f"{name} --trace {trace}"
            p = run(bench, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace, "--scale", "tiny")
            check(p.returncode == 0, f"{where}: exit {p.returncode}\n{p.stderr[-2000:]}")
            lines = p.stdout.strip().splitlines()
            declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
            check_result(lines[-1], declared, where)
            detail = json.loads(lines[-2])
            check(detail.get("error_rate") == 0, f"{where}: error_rate {detail.get('error_rate')}")
            if trace == "0":
                check(detail["op_samples"] >= 1 and "op_tail_percentile" in detail, f"{where}: sample count")
            else:
                spans = [json.loads(s) for s in open(detail["spans_file"])]
                check(len(spans) == detail["spans"] > 0, f"{where}: {len(spans)} spans written")
                for s in spans:
                    check(set(s) == {"span", "op", "name", "parent", "start_ns", "end_ns"}, f"{where}: span keys {sorted(s)}")
                    check(s["end_ns"] >= s["start_ns"], f"{where}: span ends before it starts")
                    check(s["parent"] is None or s["parent"] < s["span"], f"{where}: parent recorded after child")
            print(f"smoke: ok  {where}", flush=True)

    p = run(bench, "--workload", "all", "--seed", "1", "--seconds", "1", "--trace", "0", "--scale", "tiny")
    check(p.returncode == 0, f"all: exit {p.returncode}")
    combined = [
        {"name": f"{w['name']}.{m['name']}", "unit": m["unit"]}
        for w in bench["workloads"]
        for m in bench["end_to_end"]
    ]
    check_result(p.stdout.strip().splitlines()[-1], combined, "all")
    print("smoke: ok  --workload all", flush=True)

    p = run(bench, "--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0")
    check(p.returncode != 0 and "correct" not in p.stdout, "an unknown workload must fail without a result")
    print("smoke: ok  unknown workload refused")


if __name__ == "__main__":
    main()
