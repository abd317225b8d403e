#!/usr/bin/env bash
# Metrics smoke: `tpi simulate --metrics-out`, `tpi batch --metrics-out`
# (on a manifest mixing healthy and failing jobs) and `tpi insert
# --metrics-out` (constructive, dp and greedy; constructive also on
# results/dag400_s5.bench, run from the repo root) must write well-formed
# registry snapshots with the expected keys, the batch summary line must
# carry the per-status split, and `tpi stats` must render the snapshot
# as a table.
set -euo pipefail

TPI="${TPI:-target/release/tpi}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

cat > "$dir/ok.bench" <<'EOF'
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
g0 = AND(a, b)
g1 = OR(c, d)
y = AND(g0, g1)
OUTPUT(y)
EOF

printf 'INPUT(a)\ny = AND)a(\n' > "$dir/bad.bench"

# ---- simulate --metrics-out: kernel counters present and sane. ----
# One thread: the scheduler counters below assert a sequential run.
"$TPI" simulate "$dir/ok.bench" --patterns 256 --threads 1 --metrics-out "$dir/sim.json"
python3 - "$dir/sim.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ["sim.blocks", "sim.pattern_lanes", "sim.events",
            "sim.faults_dropped", "sim.stem_obs_hits",
            "sim.stem_obs_misses", "sim.polls",
            "sim.steals", "sim.steal_misses"]:
    entry = doc[key]
    assert entry["type"] == "counter", (key, entry)
    assert isinstance(entry["value"], int) and entry["value"] >= 0, (key, entry)
assert doc["sim.blocks"]["value"] >= 1
assert doc["sim.faults_dropped"]["value"] >= 1
# Sequential runs never steal.
assert doc["sim.steals"]["value"] == 0, doc["sim.steals"]
assert doc["sim.steal_misses"]["value"] == 0, doc["sim.steal_misses"]
print("simulate metrics: ok (kernel counters, scheduler counters)")
EOF

# ---- batch --metrics-out on a mixed manifest. ----
cat > "$dir/manifest.json" <<'EOF'
{
  "workers": 2,
  "jobs": [
    {"circuit": "ok.bench", "method": "simulate", "patterns": 256},
    {"circuit": "bad.bench", "method": "simulate", "patterns": 256},
    {"circuit": "ok.bench", "method": "simulate", "patterns": 256}
  ]
}
EOF
# --no-fail-on-error: the bad.bench job fails by design, and this smoke
# only cares about the metrics, not the exit code.
"$TPI" batch "$dir/manifest.json" --out "$dir/out.jsonl" --no-fail-on-error \
  --metrics-out "$dir/batch.json" > "$dir/summary.json"
python3 - "$dir/batch.json" "$dir/summary.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["batch.status.ok"]["value"] == 2, doc.get("batch.status.ok")
assert doc["batch.status.error"]["value"] == 1, doc.get("batch.status.error")
job_ms = doc["batch.job_ms"]
assert job_ms["type"] == "histogram" and job_ms["count"] == 3, job_ms
assert doc["batch.queue_wait_ms"]["count"] == 3, doc["batch.queue_wait_ms"]
for lo, n in job_ms["buckets"]:
    assert isinstance(lo, int) and isinstance(n, int), job_ms
summary = json.load(open(sys.argv[2]))
assert summary["summary"] is True, summary
assert summary["ok"] == 2 and summary["error"] == 1, summary
assert summary["panic"] == 0 and summary["timeout"] == 0, summary
assert summary["cancelled"] == 0 and summary["skipped"] == 0, summary
assert isinstance(summary["elapsed_ms"], int), summary
print("batch metrics: ok (per-status split and histograms present)")
EOF

# ---- insert --metrics-out: search-referee counters present. ----
# A 16-wide AND cone is random-pattern resistant enough that the
# constructive engine must referee at least one candidate round.
python3 - > "$dir/cone.bench" <<'EOF'
n = 16
print("\n".join(f"INPUT(x{i})" for i in range(n)))
layer = [f"x{i}" for i in range(n)]
g = 0
while len(layer) > 1:
    nxt = []
    for i in range(0, len(layer), 2):
        print(f"g{g} = AND({layer[i]}, {layer[i + 1]})")
        nxt.append(f"g{g}")
        g += 1
    layer = nxt
print(f"OUTPUT({layer[0]})")
EOF
"$TPI" insert "$dir/cone.bench" --log2-threshold -8 --method constructive \
  --metrics-out "$dir/insert.json" > /dev/null
python3 - "$dir/insert.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rounds = doc["search.rounds"]
assert rounds["type"] == "counter" and rounds["value"] >= 1, rounds
cands = doc["search.candidates_evaluated"]
assert cands["type"] == "counter" and cands["value"] >= 1, cands
hist = doc["search.candidate_eval_us"]
assert hist["type"] == "histogram", hist
assert hist["count"] == cands["value"], (hist, cands)
for lo, n in hist["buckets"]:
    assert isinstance(lo, int) and isinstance(n, int), hist
# Every region DP the engine ran (a memo miss) is timed, inside one
# timed optimize call.
region = doc["engine.region_dp_us"]
assert region["type"] == "histogram", region
assert region["count"] == doc["engine.memo_misses"]["value"] >= 1, (region, doc["engine.memo_misses"])
assert doc["engine.optimize_us"]["count"] == 1, doc["engine.optimize_us"]
# The work cuts publish their counters even when they cut nothing.
for key in ["engine.region_dp_skipped", "search.faults_filtered"]:
    entry = doc[key]
    assert entry["type"] == "counter" and entry["value"] >= 0, (key, entry)
print("insert metrics: ok (search referee counters, eval-time and region-DP histograms)")
EOF

# ---- insert on a 400-gate DAG: both work cuts fire. ----
# Regions that cannot enter a round's kept list go unsolved, and
# control/full candidate runs leave out faults that cannot reach their
# cut set; every solve that did run is still timed.
"$TPI" insert results/dag400_s5.bench --log2-threshold -10 --method constructive \
  --metrics-out "$dir/dag.json" > /dev/null
python3 - "$dir/dag.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
skipped = doc["engine.region_dp_skipped"]
assert skipped["type"] == "counter" and skipped["value"] >= 1, skipped
filtered = doc["search.faults_filtered"]
assert filtered["type"] == "counter" and filtered["value"] >= 1, filtered
assert doc["engine.region_dp_us"]["count"] == doc["engine.memo_misses"]["value"], doc["engine.memo_misses"]
print(f"work-cut metrics: ok ({skipped['value']} region DPs skipped, {filtered['value']} faults filtered)")
EOF

# ---- insert --method dp --metrics-out: the DP's own work counters. ----
"$TPI" insert "$dir/cone.bench" --log2-threshold -8 --method dp \
  --metrics-out "$dir/dp.json" > /dev/null
python3 - "$dir/dp.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
nodes = doc["core.dp.nodes"]
assert nodes["type"] == "counter" and nodes["value"] == 31, nodes  # 16 inputs + 15 ANDs
states = doc["core.dp.states_created"]
assert states["type"] == "counter" and states["value"] >= nodes["value"], states
frontier = doc["core.dp.max_frontier"]
assert frontier["type"] == "gauge" and 1 <= frontier["value"] <= states["value"], frontier
print("dp insert metrics: ok (nodes, states created, largest frontier)")
EOF

# ---- insert --method greedy --metrics-out: greedy's own work counters. ----
"$TPI" insert "$dir/cone.bench" --log2-threshold -8 --method greedy \
  --metrics-out "$dir/greedy.json" > /dev/null
python3 - "$dir/greedy.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ["core.greedy.rounds", "core.greedy.probes", "core.greedy.probe_nodes"]:
    entry = doc[key]
    assert entry["type"] == "counter" and isinstance(entry["value"], int), (key, entry)
# The cone needs points, so greedy scores candidates in every round.
rounds = doc["core.greedy.rounds"]["value"]
probes = doc["core.greedy.probes"]["value"]
assert rounds >= 1 and probes > 0, (rounds, probes)
assert doc["core.greedy.probe_nodes"]["value"] >= probes, doc["core.greedy.probe_nodes"]
print("greedy insert metrics: ok (rounds, probes, probe nodes)")
EOF

# ---- tpi stats renders the snapshot as a table. ----
"$TPI" stats "$dir/sim.json" | tee "$dir/table.txt" | head -n 3
grep -q '^metric' "$dir/table.txt"
grep -q 'sim.faults_dropped' "$dir/table.txt"

echo "metrics smoke: ok"
