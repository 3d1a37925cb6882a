#!/usr/bin/env python3
"""Compare a fresh benchmark --json run against a checked-in baseline.

Two formats are auto-detected:

* parabb-bench-v1 (the repo's own harnesses, e.g. micro_lower_bound
  --json): named tables of header + string rows, numeric cells carrying
  k/M/G magnitude suffixes and "x" speedup suffixes.
* google-benchmark JSON (micro_bench / micro_service --benchmark_out):
  a "benchmarks" array with per-benchmark real_time/cpu_time.

Modes:

* default     -- structure must match AND every numeric quantity must lie
                 within --tolerance (relative) of the baseline. For use on
                 a quiet machine when hunting perf regressions. Timings
                 are only comparable between runs on the same kind of
                 machine, so both files must carry the same machine stamp:
                 "stamp" {num_cpus, cpu_model} in parabb-bench-v1, and
                 context.num_cpus in google-benchmark JSON. A missing or
                 different stamp refuses the comparison (exit 3).
* --structure-only -- timing-free: the fresh run must contain the same
                 benchmarks / tables / headers as the baseline, whatever
                 their stamps. This is what the bench_check_* ctest
                 entries run, so baselines cannot drift from the binaries
                 without failing CI while noisy container timings stay out
                 of the gate.

Exit status: 0 = match, 1 = mismatch/regression, 2 = usage or I/O error,
3 = timings refused because the machine stamps differ.

Regenerate baselines (docs/testing.md "Baseline regeneration"):

  build/bench/micro_bench --benchmark_out=bench/baselines/BENCH_micro_bench.json \
      --benchmark_out_format=json
  build/bench/micro_service --benchmark_out=bench/baselines/BENCH_micro_service.json \
      --benchmark_out_format=json
"""

import argparse
import json
import re
import sys

# "15.31M" -> 15.31e6, "995.8k" -> 995.8e3, "0.88x" -> 0.88, "1.37" -> 1.37
_NUMBER = re.compile(r"^(-?\d+(?:\.\d+)?)([kMG]?)x?$")
_MAGNITUDE = {"": 1.0, "k": 1e3, "M": 1e6, "G": 1e9}


def parse_cell(cell):
    """Numeric value of a table cell, or None for a label cell."""
    m = _NUMBER.match(str(cell).strip())
    if not m:
        return None
    return float(m.group(1)) * _MAGNITUDE[m.group(2)]


def within(fresh, base, tolerance):
    if base == 0:
        return fresh == 0
    return abs(fresh - base) <= tolerance * abs(base)


class Mismatch(Exception):
    pass


def check_parabb(fresh, base, tolerance, structure_only):
    if fresh.get("bench") != base.get("bench"):
        raise Mismatch(
            f"bench name differs: {fresh.get('bench')!r} vs "
            f"{base.get('bench')!r}")
    fresh_tables = fresh.get("tables", {})
    base_tables = base.get("tables", {})
    if set(fresh_tables) != set(base_tables):
        raise Mismatch(
            f"table sets differ: {sorted(fresh_tables)} vs "
            f"{sorted(base_tables)}")
    for name, bt in base_tables.items():
        ft = fresh_tables[name]
        if ft.get("header") != bt.get("header"):
            raise Mismatch(f"table {name!r}: header changed: "
                           f"{ft.get('header')} vs {bt.get('header')}")
        if structure_only:
            continue
        if len(ft.get("rows", [])) != len(bt.get("rows", [])):
            raise Mismatch(f"table {name!r}: row count "
                           f"{len(ft.get('rows', []))} vs "
                           f"{len(bt.get('rows', []))}")
        for fr, br in zip(ft["rows"], bt["rows"]):
            for col, (fc, bc) in enumerate(zip(fr, br)):
                bn = parse_cell(bc)
                if bn is None:  # label cell: exact match
                    if str(fc) != str(bc):
                        raise Mismatch(
                            f"table {name!r} col {col}: label {fc!r} vs "
                            f"{bc!r}")
                    continue
                fn = parse_cell(fc)
                if fn is None or not within(fn, bn, tolerance):
                    raise Mismatch(
                        f"table {name!r} col "
                        f"{ft['header'][col]!r}: {fc!r} outside "
                        f"{tolerance:.0%} of baseline {bc!r}")


def check_google(fresh, base, tolerance, structure_only):
    def rows(doc):
        return {
            b["name"]: b
            for b in doc.get("benchmarks", [])
            # aggregate rows (mean/median/stddev) depend on repetition
            # flags, not on the benchmark set
            if b.get("run_type", "iteration") == "iteration"
        }

    fresh_rows, base_rows = rows(fresh), rows(base)
    if set(fresh_rows) != set(base_rows):
        missing = sorted(set(base_rows) - set(fresh_rows))
        extra = sorted(set(fresh_rows) - set(base_rows))
        raise Mismatch(f"benchmark sets differ: missing {missing}, "
                       f"unexpected {extra}")
    if structure_only:
        return
    for name, br in base_rows.items():
        fr = fresh_rows[name]
        if fr.get("time_unit") != br.get("time_unit"):
            raise Mismatch(f"{name}: time unit changed")
        for field in ("real_time", "cpu_time"):
            if field not in br:
                continue
            if not within(fr.get(field, 0.0), br[field], tolerance):
                raise Mismatch(
                    f"{name}: {field} {fr.get(field):.1f} outside "
                    f"{tolerance:.0%} of baseline {br[field]:.1f} "
                    f"{br.get('time_unit', '')}")


def machine_stamp(doc):
    """The stamp that says which kind of machine produced `doc`, or None."""
    if doc.get("schema") == "parabb-bench-v1":
        return doc.get("stamp")
    context = doc.get("context", {})
    if "num_cpus" not in context:
        return None
    return {"num_cpus": context["num_cpus"]}


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_check: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("fresh", help="JSON from a fresh benchmark run")
    parser.add_argument("baseline",
                        help="checked-in bench/baselines/BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="relative tolerance band (default 0.5 = ±50%%)")
    parser.add_argument("--structure-only", action="store_true",
                        help="skip timing comparison (CI-safe)")
    args = parser.parse_args()

    fresh, base = load(args.fresh), load(args.baseline)
    if not args.structure_only:
        fresh_stamp, base_stamp = machine_stamp(fresh), machine_stamp(base)
        if fresh_stamp is None or fresh_stamp != base_stamp:
            print(f"bench_check: refusing to compare timings: machine stamp "
                  f"{fresh_stamp} ({args.fresh}) vs {base_stamp} "
                  f"({args.baseline})", file=sys.stderr)
            sys.exit(3)
    try:
        if base.get("schema") == "parabb-bench-v1":
            check_parabb(fresh, base, args.tolerance, args.structure_only)
        elif "benchmarks" in base:
            check_google(fresh, base, args.tolerance, args.structure_only)
        else:
            print("bench_check: unrecognized baseline format",
                  file=sys.stderr)
            sys.exit(2)
    except Mismatch as m:
        print(f"bench_check: MISMATCH: {m}", file=sys.stderr)
        sys.exit(1)
    mode = "structure" if args.structure_only else \
        f"structure + timings within {args.tolerance:.0%}"
    print(f"bench_check: OK ({mode}) {args.fresh} vs {args.baseline}")


if __name__ == "__main__":
    main()
