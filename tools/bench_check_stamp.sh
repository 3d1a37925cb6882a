#!/bin/sh
# bench_check_stamp.sh <record.json> <same-record-other-machine.json>
#
# The two parabb-bench-v1 records differ only in their stamp's num_cpus.
# bench_check.py must refuse to compare their timings (exit 3), pass them
# structure-only, and compare each one's timings with itself.
set -u

check="$(dirname "$0")/bench_check.py"

python3 "$check" "$1" "$2"
status=$?
if [ "$status" -ne 3 ]; then
  echo "bench_check_stamp: timings across machines exited $status, not 3" >&2
  exit 1
fi
python3 "$check" --structure-only "$1" "$2" || exit 1
python3 "$check" "$1" "$1" || exit 1
python3 "$check" "$2" "$2" || exit 1
echo "bench_check_stamp: OK"
