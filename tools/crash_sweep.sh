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
# outcome, not a failure. Two more trials, run beside them, send SIGTERM,
# the "snapshot, then stop" signal, a third of a solve into a run that
# snapshots only on request (--checkpoint-interval 0), on the sequential
# engine and at 4 threads: the run must exit 4 (cancelled) with a
# snapshot on disk that resumes the same way, or, if it finished first,
# exit 0 with the reference cost.
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
    # Whatever ends the sweep, the trials still running in the background
    # die before their work directory goes: kill_tree <pid> kills a process
    # and all it started, each frozen before its children are listed.
    kill_tree() {
      kill -STOP "$1" 2>/dev/null || return 0
      for child in $(pgrep -P "$1"); do kill_tree "$child"; done
      kill -KILL "$1" 2>/dev/null || :
    }
    trap 'for p in $(pgrep -P $$); do kill_tree "$p"; done; wait
          rm -rf "$work"' EXIT
    trap 'exit 1' INT TERM

    # The uninterrupted reference cost (engine-independent), and its wall
    # time, a third of which the SIGTERM trials below wait.
    ref_start=$(date +%s.%N)
    ref=$("$solve" "$graph" --procs $procs --quiet)
    ref_end=$(date +%s.%N)
    echo "crash_sweep: reference cost $ref"

    # resume_and_check <trial> <engine flags> <snapshot>: the snapshot
    # resumes to the reference cost with a CERTIFIED certificate.
    resume_and_check() {
      # shellcheck disable=SC2086  # $2 is a flag list on purpose
      cost=$("$solve" "$graph" --procs $procs $2 --quiet \
                      --resume "$3" --certify "$3.cert") || {
        echo "crash_sweep: $1 ($2) resume failed" >&2
        exit 1
      }
      if [ "$cost" != "$ref" ]; then
        echo "crash_sweep: $1 ($2) resumed to $cost, expected $ref" >&2
        exit 1
      fi
      "$verify" "$graph" "$3.cert" --procs $procs --quiet >/dev/null || {
        echo "crash_sweep: $1 ($2) certificate rejected" >&2
        exit 1
      }
    }

    # SIGTERM: snapshot on request, then exit 4 (cancelled). The signal
    # lands a third of a reference solve in (at least 0.1 s, after the
    # handler is installed): before the end of a 4-thread solve, whose
    # length varies, while sparing the certified resume a third of the
    # search. The two trials run in the background, beside the SIGKILL
    # trials: under the thread sanitizer each certified resume and its
    # verification take minutes, and the SIGKILL trials alone come close
    # to the ctest timeout.
    term_delay=$(awk "BEGIN { d = ($ref_end - $ref_start) / 3
                              printf \"%.2f\", d < 0.1 ? 0.1 : d }")
    # term_trial <name> <engine flags>
    term_trial() {
      # shellcheck disable=SC2086
      "$solve" "$graph" --procs $procs $2 --quiet \
               --checkpoint "$work/$1.ckpt" --checkpoint-interval 0 \
               > "$work/$1.out" 2>/dev/null &
      pid=$!
      sleep "$term_delay"
      kill -TERM "$pid" 2>/dev/null || :
      code=0
      wait "$pid" || code=$?
      if [ "$code" = 4 ] && [ -f "$work/$1.ckpt" ]; then
        resume_and_check "SIGTERM" "$2" "$work/$1.ckpt"
        echo "crash_sweep: SIGTERM ($2) exited 4 and resumed to cost $ref"
      elif [ "$code" = 0 ] && [ "$(cat "$work/$1.out")" = "$ref" ]; then
        echo "crash_sweep: SIGTERM ($2) came after the solve"
      else
        echo "crash_sweep: SIGTERM ($2) exited $code without a snapshot" \
             "or the reference cost" >&2
        exit 1
      fi
    }
    term_trial term_seq "--algo bnb" &
    seq_trial=$!
    term_trial term_par "--algo bnb-parallel --threads 4" &
    par_trial=$!

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
      out="$work/run$seed.out"
      rm -f "$ckpt" "$out"

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
        resume_and_check "seed $seed" "$engine" "$ckpt"
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

    failed=0
    wait "$seq_trial" || failed=1
    wait "$par_trial" || failed=1
    [ "$failed" = 0 ] || exit 1
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
