#!/bin/sh
# Seeded fault-injection sweep (docs/robustness.md): every injected
# fault must resolve to a *defined* outcome — an exit code from the
# documented taxonomy — never a crash, a hang, or an unknown code.
#
# quick mode (default; wired into ctest as cli_fault_sweep, label
# "robust", on tests/data/crash.tgf): drives `parabb_solve
# --inject-faults <seed>` over 200 seeded plans, each capped at 20000
# generated vertices. Seeds cycle through three engine slots (the
# sequential engine, the parallel engine at 4 threads, at 8 threads).
# Every odd seed also caps memory at --max-memory 65536, and every fourth
# seed arms --degrade on top, so injected faults meet the memory cliff
# and the degradation ladder. The sequential slot selects LLB under the
# cap: its LIFO frontier stays far below 64 KiB. Every run must exit
# 0 (optimal), 3 (feasible_timeout), 4 (cancelled), or 5 (infeasible).
#
#   fault_sweep.sh quick <parabb_solve> <graph.tgf>
#
# full mode (manual / CI, not a ctest — it builds two extra trees):
# configures address- and thread-sanitized builds of the current source
# and re-runs the whole "robust" ctest label under each, which includes
# the 200-plan in-process fault matrix and the degradation-ladder
# suite. Zero sanitizer findings is the acceptance gate.
#
#   fault_sweep.sh full [source-dir [build-root]]
set -eu

mode=${1:-quick}

case "$mode" in
  quick)
    solve=${2:?usage: fault_sweep.sh quick <parabb_solve> <graph.tgf>}
    graph=${3:?usage: fault_sweep.sh quick <parabb_solve> <graph.tgf>}
    seeds=${FAULT_SWEEP_SEEDS:-200}
    seed=0
    while [ "$seed" -lt "$seeds" ]; do
      case $((seed % 3)) in
        0) engine="--algo bnb" ;;
        1) engine="--algo bnb-parallel --threads 4" ;;
        2) engine="--algo bnb-parallel --threads 8" ;;
      esac
      if [ $((seed % 2)) -eq 1 ]; then
        engine="$engine --max-memory 65536"
        [ $((seed % 3)) -eq 0 ] && engine="$engine --select llb"
        [ $((seed % 4)) -eq 3 ] && engine="$engine --degrade"
      fi
      rc=0
      # shellcheck disable=SC2086  # $engine is a flag list on purpose
      "$solve" "$graph" --procs 2 --max-generated 20000 \
               --inject-faults "$seed" $engine --quiet || rc=$?
      case "$rc" in
        0|3|4|5) ;;
        *)
          echo "fault_sweep: seed $seed ($engine) exited $rc —" \
               "not a defined outcome" >&2
          exit 1
          ;;
      esac
      seed=$((seed + 1))
    done
    echo "fault_sweep: $seeds seeded plans, all defined outcomes"
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
      (cd "$build" && ctest -L robust --output-on-failure -j 2)
    done
    echo "fault_sweep: robust label clean under ASan+UBSan and TSan"
    ;;

  *)
    echo "usage: fault_sweep.sh quick <parabb_solve> <graph.tgf>" >&2
    echo "       fault_sweep.sh full [source-dir [build-root]]" >&2
    exit 2
    ;;
esac
