#!/bin/sh
# Crash-recovery sweep (docs/robustness.md, "Recovery"): a run SIGKILLed
# at a random point and resumed from its --checkpoint snapshot must reach
# the same optimal lateness — and a CERTIFIED certificate — as the
# uninterrupted run. No warning, no flush, no handler: SIGKILL is the
# harshest crash the kernel can deliver, so surviving it certifies the
# atomic-write discipline (temp file + fsync + rename) end to end.
#
# quick mode (default; wired into ctest as cli_crash_smoke, label
# "recover"): solves the reference instance once uninterrupted, then for
# each seeded trial starts a fresh solve with periodic snapshots, kills
# it dead after a seed-varied delay, resumes from the snapshot with
# --certify, and asserts the resumed cost equals the reference and
# parabb_verify certifies the certificate. Trials rotate across the
# sequential engine and the parallel engine at 4 and at 8 threads. A
# trial that finishes before the kill
# lands just checks its cost — with a fast machine that is a legitimate
# outcome, not a failure.
#
#   crash_sweep.sh quick <parabb_solve> <parabb_verify> <graph.tgf>
#
#   CRASH_SWEEP_SEEDS  trials to run (default 50; ctest uses 6)
#
# full mode (manual / CI, not a ctest — it builds two extra trees):
# configures address- and thread-sanitized builds of the current source
# and re-runs the whole "recover" ctest label under each, covering the
# snapshot codec, the resume grid, and the journal replay with
# instrumented memory / synchronization checking.
#
#   crash_sweep.sh full [source-dir [build-root]]
set -eu

mode=${1:-quick}

case "$mode" in
  quick)
    solve=${2:?usage: crash_sweep.sh quick <parabb_solve> <parabb_verify> <graph.tgf>}
    verify=${3:?usage: crash_sweep.sh quick <parabb_solve> <parabb_verify> <graph.tgf>}
    graph=${4:?usage: crash_sweep.sh quick <parabb_solve> <parabb_verify> <graph.tgf>}
    seeds=${CRASH_SWEEP_SEEDS:-50}
    procs=3
    work=$(mktemp -d "${TMPDIR:-/tmp}/parabb_crash_sweep.XXXXXX")
    trap 'rm -rf "$work"' EXIT INT TERM

    # The uninterrupted reference cost (engine-independent).
    ref=$("$solve" "$graph" --procs $procs --quiet)
    echo "crash_sweep: reference cost $ref"

    resumed=0
    finished=0
    seed=0
    while [ "$seed" -lt "$seeds" ]; do
      case $((seed % 3)) in
        0) engine="--algo bnb" ;;
        1) engine="--algo bnb-parallel --threads 4" ;;
        2) engine="--algo bnb-parallel --threads 8" ;;
      esac
      # Kill delay varied per seed across 0.10 .. 1.00 s of a ~1 s solve.
      delay=$(awk "BEGIN { printf \"%.2f\", 0.10 + ($seed % 10) * 0.10 }")
      ckpt="$work/run$seed.ckpt"
      cert="$work/run$seed.cert"
      out="$work/run$seed.out"
      rm -f "$ckpt" "$cert" "$out"

      # shellcheck disable=SC2086  # $engine is a flag list on purpose
      "$solve" "$graph" --procs $procs $engine --quiet \
               --checkpoint "$ckpt" --checkpoint-interval 50 \
               > "$out" 2>/dev/null &
      pid=$!
      sleep "$delay"
      if kill -KILL "$pid" 2>/dev/null; then
        wait "$pid" 2>/dev/null || :
        if [ ! -f "$ckpt" ]; then
          # Killed before the first snapshot landed (or mid-write, leaving
          # only the temp file): recovery is a fresh start, which the
          # reference run already covers. Still a defined outcome.
          seed=$((seed + 1))
          continue
        fi
        # shellcheck disable=SC2086
        cost=$("$solve" "$graph" --procs $procs $engine --quiet \
                        --resume "$ckpt" --certify "$cert") || {
          echo "crash_sweep: seed $seed ($engine) resume failed" >&2
          exit 1
        }
        if [ "$cost" != "$ref" ]; then
          echo "crash_sweep: seed $seed ($engine) resumed to $cost," \
               "expected $ref" >&2
          exit 1
        fi
        "$verify" "$graph" "$cert" --procs $procs --quiet >/dev/null || {
          echo "crash_sweep: seed $seed ($engine) certificate rejected" >&2
          exit 1
        }
        resumed=$((resumed + 1))
      else
        # The run beat the kill. Its cost must still be the reference.
        wait "$pid" || {
          echo "crash_sweep: seed $seed ($engine) uninterrupted run" \
               "failed" >&2
          exit 1
        }
        cost=$(cat "$out")
        if [ "$cost" != "$ref" ]; then
          echo "crash_sweep: seed $seed ($engine) solved to $cost," \
               "expected $ref" >&2
          exit 1
        fi
        finished=$((finished + 1))
      fi
      seed=$((seed + 1))
    done
    echo "crash_sweep: $seeds trials — $resumed killed+resumed to cost" \
         "$ref with CERTIFIED certificates, $finished finished unkilled"
    ;;

  full)
    src=${2:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
    root=${3:-$src}
    for san in address thread; do
      build="$root/build-$(echo "$san" | cut -c1)san"
      echo "=== PARABB_SANITIZE=$san -> $build ==="
      cmake -B "$build" -S "$src" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DPARABB_SANITIZE="$san" >/dev/null
      cmake --build "$build" -j >/dev/null
      (cd "$build" && ctest -L recover --output-on-failure -j 2)
    done
    echo "crash_sweep: recover label clean under ASan+UBSan and TSan"
    ;;

  *)
    echo "usage: crash_sweep.sh quick <parabb_solve> <parabb_verify> <graph.tgf>" >&2
    echo "       crash_sweep.sh full [source-dir [build-root]]" >&2
    exit 2
    ;;
esac
