#!/usr/bin/env python3
"""Compare benchmark result files of two code versions, metric by metric.

    python3 perfbench/compare.py --base .bench_out/a/*.json --new .bench_out/b/*.json

Each file is a result run.py wrote to .bench_out/. Results are grouped by
(workload, trace); for every metric the medians of the two sides are
compared, and an end-to-end metric that got worse by more than its
BENCHMARK.json bound is flagged. Timings are only comparable between runs
on the same kind of machine and build, so the comparison is refused (exit
status 3) when any two files differ in nproc, CPU model, compiler or build
type. Exit status 1 means a flagged regression, 0 none.
"""

import argparse
import json
import os
import statistics
import sys

MACHINE_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def load(paths):
    results = []
    for path in paths:
        with open(path) as f:
            r = json.load(f)
        r["_path"] = path
        results.append(r)
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)

    first = base[0]
    for r in base + new:
        for key in MACHINE_KEYS:
            if r["stamp"].get(key) != first["stamp"].get(key):
                print(f"refusing to compare: {key} differs: "
                      f"{first['stamp'].get(key)!r} ({first['_path']}) vs "
                      f"{r['stamp'].get(key)!r} ({r['_path']})")
                sys.exit(3)

    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print("stamp " + " ".join(f"{k}={first['stamp'].get(k)!r}" for k in MACHINE_KEYS))
    regressions = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        if not b or not n:
            print(f"\n{workload} trace={int(trace)}: only one side has results")
            continue
        commits = lambda rs: ",".join(sorted({r["stamp"].get("commit", "?") for r in rs}))
        print(f"\n{workload} trace={int(trace)}: base {len(b)} run(s) {commits(b)}"
              f", new {len(n)} run(s) {commits(n)}")
        names = [m for m in b[0]["metrics"]
                 if all(m in r["metrics"] for r in b + n)]
        for name in names:
            vb = statistics.median(r["metrics"][name]["value"] for r in b)
            vn = statistics.median(r["metrics"][name]["value"] for r in n)
            unit = b[0]["metrics"][name]["unit"]
            change = (vn - vb) / vb if vb else float("nan")
            worse = change if better.get(name, "lower") == "lower" else -change
            flag = ""
            if name in bound and worse > bound[name]:
                flag = f"  REGRESSION (bound {bound[name]:.0%})"
                regressions += 1
            print(f"  {name:30s} {vb:14.6g} -> {vn:14.6g} {unit:6s} "
                  f"{change:+8.1%}{flag}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
