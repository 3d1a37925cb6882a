#!/usr/bin/env python3
"""Build and run the ParaBB benchmark.

    python3 perfbench/run.py --workload solve_seq --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout of the repository. The first call
configures and builds perfbench/ (which compiles the library from ../src)
into .bench_build/perfbench; later calls rebuild only what changed. The
benchmark's own output goes to stdout, the build log to stderr, a result
file with the stamp (nproc, CPU model, compiler, build type, commit) and
the traced runs' spans to .bench_out/<commit>/, and the last stdout line
is the result:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. Exit status: 0 when every answer checked
out, 1 on a wrong answer, 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "parabb_perfbench")
REFERENCE = os.path.join(HERE, "reference", "optima-seed1.txt")
WORKLOADS = ("solve_seq", "solve_llb", "solve_par", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(step))


def commit():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], capture_output=True, text=True).stdout.strip()
            return r.stdout.strip() + ("-dirty" if dirty else "")
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that a forged cost and a forged "
                             "certificate are caught, then exit")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([BINARY, "--selftest"]).returncode)

    version = commit()
    out_dir = os.path.join(OUT_DIR, version)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--reference", REFERENCE]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with status {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["stamp"]["commit"] = version
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(result, f, indent=1)
    print("stamp " + " ".join(f"{k}={v!r}" for k, v in result["stamp"].items()))

    metrics = {}
    for m in metric_names(args.trace):
        if m not in result["metrics"]:
            fail(f"{args.workload} did not report {m}")
        metrics[m] = {"value": result["metrics"][m]["value"],
                      "unit": result["metrics"][m]["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
