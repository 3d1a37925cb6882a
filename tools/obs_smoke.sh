#!/bin/sh
# Observability smoke test, end to end through both CLIs:
#
#  * parabb_serve answers an in-band {"metrics":true} request with live
#    registry counters, rejects a malformed metrics request with a
#    line-numbered error, attaches a flight-recorder dump to a job that
#    exhausts its vertex budget, and writes a Prometheus text dump at
#    shutdown with nonzero engine counters and the service's job and
#    cache counts.
#  * parabb_solve --stats-json emits a parabb-bench-v1 record whose
#    "solve" table carries the search stats.
#
# Requests are submitted with --workers 1 and the metrics line follows
# the admissions it asserts on, so every checked counter is
# deterministic.
#
# Usage: obs_smoke.sh <parabb_serve> <parabb_solve> <graph.tgf>
set -eu
serve=$1
solve=$2
graph=$3
tmp="${TMPDIR:-/tmp}/obs_smoke.$$"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp"

# Line 1: a quick optimal job. Line 2: a 14-task instance (deterministic
# generator below) budgeted so it times out with an incumbent, flight
# recording on. Line 3: a metrics probe. Line 4: a malformed metrics
# request that must be rejected with its line number. Line 5: line 1
# again, answered from the result cache.
python3 - "$tmp/requests.jsonl" <<'EOF'
import json, random, sys
random.seed(7)
lines = [f"task t{i} exec={random.randint(1,9)}" for i in range(14)]
for i in range(14):
    for j in range(i + 1, 14):
        if random.random() < 0.18:
            lines.append(f"arc t{i} t{j}")
big = "\n".join(lines) + "\n"
small = "task a exec=3\ntask b exec=4\narc a b\n"
reqs = [
    {"id": "job-small", "graph": small, "procs": 2},
    {"id": "job-flight", "graph": big, "procs": 3,
     "budget": {"max_generated": 400}, "flight": True},
    {"id": "m1", "metrics": True},
    {"id": "m-bad", "metrics": True, "bogus": 1},
    {"id": "job-small-again", "graph": small, "procs": 2},
]
with open(sys.argv[1], "w") as f:
    for r in reqs:
        f.write(json.dumps(r) + "\n")
EOF

"$serve" --workers 1 --quiet --metrics-prom "$tmp/prom.txt" \
    "$tmp/requests.jsonl" > "$tmp/responses.jsonl"

python3 - "$tmp/responses.jsonl" "$tmp/prom.txt" <<'EOF'
import json, sys
by_id = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    by_id[r.get("id", "")] = r

m1 = by_id["m1"]
admitted = m1["metrics"]["counters"]["parabb_service_jobs_admitted_total"]
assert admitted == 2, f"metrics response saw {admitted} admissions, want 2"

bad = by_id["m-bad"]
assert "line 4" in bad["error"] and "unknown field" in bad["error"], \
    f"bad metrics error not line-numbered: {bad['error']!r}"

fl = by_id["job-flight"]
assert fl["outcome"] == "feasible_timeout", fl["outcome"]
dump = fl["flight"]
events = dump["workers"][0]["events"]
assert events, "flight dump carries no events"
seqs = [e["seq"] for e in events]
assert seqs == sorted(seqs), "flight events out of order"
kinds = {e["event"] for e in events}
assert "expand" in kinds, f"no expand events in {kinds}"

assert by_id["job-small"]["outcome"] == "optimal"
assert "flight" not in by_id["job-small"], "flight attached without flag"

assert by_id["job-small-again"]["cached"] is True

prom = {}
for line in open(sys.argv[2]):
    if not line.startswith("#"):
        name, value = line.split()
        prom[name] = value
assert int(prom.get("parabb_search_expanded_total", 0)) > 0, \
    "engine counters absent from prom"
# Three jobs, each counted once; each cache lookup is a hit or a miss.
want = {"jobs_admitted": 3, "jobs_completed": 3, "jobs_optimal": 2,
        "jobs_feasible_timeout": 1, "jobs_cancelled": 0,
        "jobs_infeasible": 0, "jobs_error": 0,
        "cache_hits": 1, "cache_misses": 2}
for short, n in want.items():
    name = f"parabb_service_{short}_total"
    assert int(prom.get(name, -1)) == n, f"{name} = {prom.get(name)}, want {n}"
print("obs smoke: serve metrics, flight dump, and prom dump OK")
EOF

"$solve" "$graph" --procs 2 --quiet --stats-json "$tmp/stats.json"
python3 - "$tmp/stats.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "parabb-bench-v1", doc["schema"]
table = doc["tables"]["solve"]
rows = {r[0]: r[1] for r in table["rows"]}
assert int(rows["expanded"]) > 0
assert rows["outcome"] == "optimal"
assert rows["proved"] == "1"
print("obs smoke: --stats-json record OK")
EOF
