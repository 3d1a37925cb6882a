#!/bin/sh
# Golden smoke test for parabb_serve: pipes the 51-request JSONL batch
# through the service (single worker, so cache-hit flags and response
# sets are deterministic) and diffs against the checked-in golden file.
#
# Normalization: the "seconds" field is wall-clock and is zeroed before
# the diff; both sides are sorted because responses may legitimately
# interleave with error lines emitted by the reader thread.
#
# Usage: serve_smoke.sh <parabb_serve-binary> <dir-with-requests+golden>
set -eu
bin=$1
src=$2
tmp="${TMPDIR:-/tmp}/serve_smoke.$$"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp"

"$bin" --workers 1 --quiet "$src/serve_smoke_requests.jsonl" \
  | sed -E 's/"seconds":[0-9eE.+-]+/"seconds":0/' \
  | LC_ALL=C sort > "$tmp/got"
LC_ALL=C sort "$src/serve_smoke_golden.jsonl" > "$tmp/want"
diff -u "$tmp/want" "$tmp/got"
echo "serve smoke: $(wc -l < "$tmp/got") responses match golden"

# Closed-stdout regression: a client that goes away must not kill the
# server with SIGPIPE. Writing responses to /dev/full makes every stdout
# flush fail; the server must drain its in-flight jobs and exit with the
# distinct broken-stream code 6 (docs/robustness.md).
rc=0
"$bin" --workers 1 --quiet "$src/serve_smoke_requests.jsonl" \
  > /dev/full 2> "$tmp/broken.err" || rc=$?
if [ "$rc" -ne 6 ]; then
  echo "expected exit 6 on closed stdout, got $rc" >&2
  cat "$tmp/broken.err" >&2
  exit 1
fi
grep -q "output stream closed" "$tmp/broken.err"
echo "serve smoke: closed stdout drained with exit 6"

# SIGTERM drain regression (docs/robustness.md, "Recovery"): a terminated
# server must answer every job it already accepted, flush its journal,
# and exit with the same drained-early code 6 — never drop accepted work
# on the floor. The requests arrive through a FIFO held open so the
# server is genuinely parked in its read loop when the signal lands.
mkfifo "$tmp/pipe"
"$bin" --workers 1 --quiet --journal "$tmp/wal" \
  < "$tmp/pipe" > "$tmp/term.out" 2> "$tmp/term.err" &
spid=$!
exec 3> "$tmp/pipe"
head -2 "$src/serve_smoke_requests.jsonl" >&3
sleep 1  # let both jobs complete; the server is now blocked reading
kill -TERM "$spid"
rc=0
wait "$spid" || rc=$?
exec 3>&-
if [ "$rc" -ne 6 ]; then
  echo "expected exit 6 on SIGTERM, got $rc" >&2
  cat "$tmp/term.err" >&2
  exit 1
fi
grep -q "SIGTERM" "$tmp/term.err"
[ "$(wc -l < "$tmp/term.out")" -eq 2 ]
[ "$(grep -c '"t":"accept"' "$tmp/wal/journal.log")" -eq 2 ]
[ "$(grep -c '"t":"complete"' "$tmp/wal/journal.log")" -eq 2 ]
echo "serve smoke: SIGTERM drained 2 jobs, journal flushed, exit 6"

# Journal duplicate suppression: a restarted server answers resubmitted
# ids from the completed log — byte-identical responses, no re-solve, no
# new journal records.
head -2 "$src/serve_smoke_requests.jsonl" \
  | "$bin" --workers 1 --quiet --journal "$tmp/wal" > "$tmp/dup.out"
LC_ALL=C sort "$tmp/term.out" > "$tmp/term.sorted"
LC_ALL=C sort "$tmp/dup.out" > "$tmp/dup.sorted"
diff -u "$tmp/term.sorted" "$tmp/dup.sorted"
[ "$(grep -c '"t":"accept"' "$tmp/wal/journal.log")" -eq 2 ]
echo "serve smoke: restart answered 2 duplicates from the journal"
