#!/usr/bin/env bash
# Patterns-objective smoke: `tpi insert --objective patterns` on small
# generated bench circuits must (a) never report more patterns than the
# no-TPI baseline, (b) emit a valid plan JSON line whose points replay
# onto a loadable netlist, (c) meter the work under the atpg.* and
# compaction.* metric families (PODEM decisions and implications, carried
# redundancy verdicts, aimed re-proofs and the committed candidates' ranks
# included), and (d) leave the default coverage objective byte-identical
# to an explicit `--objective coverage` run. On `results/dag400_s5.bench`
# (run from the repo root), a circuit with 525 redundant faults, the plan
# must be the recorded one, and probes must carry redundancy verdicts and
# re-prove others with the aimed X-path check. `tpi atpg` runs no aimed
# search.
set -euo pipefail

TPI="${TPI:-target/release/tpi}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# ---- Small random-pattern-resistant circuits (the acceptance suite's
# ---- shapes, sized for CI: each probe re-runs ATPG for its candidate). ----
python3 - "$dir" <<'EOF'
import sys, os
out = sys.argv[1]

def and_cone(n):
    lines = [f"INPUT(x{i})" for i in range(n)]
    layer = [f"x{i}" for i in range(n)]
    g = 0
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer), 2):
            lines.append(f"g{g} = AND({layer[i]}, {layer[i+1]})")
            nxt.append(f"g{g}")
            g += 1
        layer = nxt
    lines.append(f"OUTPUT({layer[0]})")
    return "\n".join(lines) + "\n"

def tree(lines, layer, prefix):
    g = 0
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer), 2):
            lines.append(f"{prefix}{g} = AND({layer[i]}, {layer[i+1]})")
            nxt.append(f"{prefix}{g}")
            g += 1
        layer = nxt
    return layer[0]

def bus_match(w):
    # Three buses, two XNOR compare planes sharing bus b, AND-reduced —
    # the same shape as the generated suite's rpr::bus_match.
    lines = []
    for bus in "abc":
        lines += [f"INPUT({bus}{i})" for i in range(w)]
    for i in range(w):
        lines.append(f"ab{i} = XNOR(a{i}, b{i})")
        lines.append(f"bc{i} = XNOR(b{i}, c{i})")
    m_ab = tree(lines, [f"ab{i}" for i in range(w)], "mab")
    m_bc = tree(lines, [f"bc{i}" for i in range(w)], "mbc")
    lines.append(f"y = AND({m_ab}, {m_bc})")
    lines.append("OUTPUT(y)")
    return "\n".join(lines) + "\n"

open(os.path.join(out, "cone16.bench"), "w").write(and_cone(16))
open(os.path.join(out, "bus8.bench"), "w").write(bus_match(8))
EOF

# ---- patterns objective: reduction + valid plan JSON. ----
for bench in cone16 bus8; do
  "$TPI" insert "$dir/$bench.bench" --objective patterns \
    --out "$dir/$bench.tpi.bench" --metrics-out "$dir/$bench.metrics.json" \
    > "$dir/$bench.out"
  grep '^{' "$dir/$bench.out" | tail -n 1 > "$dir/$bench.json"
  python3 - "$dir/$bench.json" "$bench" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
name = sys.argv[2]
assert doc["objective"] == "patterns", doc
before, after = doc["patterns_before"], doc["patterns_after"]
assert isinstance(before, int) and isinstance(after, int), doc
assert after <= before, f"{name}: {after} > {before}"
assert after < before, f"{name}: expected a strict reduction, got {before} -> {after}"
assert doc["cubes"] >= before, doc
assert doc["conflicts"] >= 1, doc
assert isinstance(doc["cost"], (int, float)), doc
kinds = {"op", "cp-and", "cp-or", "tp"}
assert doc["points"], f"{name}: a reducing plan must commit points"
for p in doc["points"]:
    assert isinstance(p["node"], str) and p["node"], p
    assert p["kind"] in kinds, p
assert doc["partial"] is False, doc
print(f"{name}: patterns {before} -> {after} with {len(doc['points'])} point(s): ok")
EOF
  # The written netlist must be loadable (analyze exits 0 on it).
  "$TPI" analyze "$dir/$bench.tpi.bench" > /dev/null \
    || fail "$bench: modified netlist does not load"
  # The work is metered: atpg.* and compaction.* families present.
  python3 - "$dir/$bench.metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("atpg.cubes_generated", "atpg.decisions", "atpg.implications",
            "compaction.cubes", "compaction.conflicts", "compaction.probes",
            "search.rounds"):
    assert doc[key]["type"] == "counter" and doc[key]["value"] >= 1, (key, doc.get(key))
assert doc["atpg.redundant_carried"]["type"] == "counter", doc.get("atpg.redundant_carried")
assert doc["atpg.redundant_rechecked"]["type"] == "counter", doc.get("atpg.redundant_rechecked")
for key in ("compaction.patterns_before", "compaction.patterns_after"):
    assert doc[key]["type"] == "gauge" and doc[key]["value"] >= 1, (key, doc.get(key))
assert doc["compaction.patterns_after"]["value"] <= doc["compaction.patterns_before"]["value"]
# One rank sample per committed point.
rank = doc["compaction.commit_rank"]
assert rank["type"] == "histogram" and rank["count"] >= 1, rank
print("metrics families: ok")
EOF
done

# ---- A circuit with redundant faults: the recorded plan, and probes that
# ---- carry redundancy verdicts instead of proving them again, or re-prove
# ---- them with the X-path check aimed at the point. ----
"$TPI" insert results/dag400_s5.bench --objective patterns --max-points 2 \
  --metrics-out "$dir/dag400.metrics.json" > "$dir/dag400.out"
grep '^{' "$dir/dag400.out" | tail -n 1 > "$dir/dag400.json"
python3 - "$dir/dag400.json" "$dir/dag400.metrics.json" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read())
points = [(p["kind"], p["node"]) for p in doc["points"]]
assert points == [("cp-and", "g168"), ("cp-and", "g168")], doc
assert (doc["patterns_before"], doc["patterns_after"]) == (51, 45), doc
metrics = json.load(open(sys.argv[2]))
carried = metrics["atpg.redundant_carried"]
assert carried["type"] == "counter" and carried["value"] >= 1, carried
rechecked = metrics["atpg.redundant_rechecked"]
assert rechecked["type"] == "counter" and rechecked["value"] >= 1, rechecked
rank = metrics["compaction.commit_rank"]
assert rank["type"] == "histogram" and rank["count"] == 2, rank
print(f"dag400_s5: patterns 51 -> 45 at cp-and g168 twice, "
      f"{carried['value']} carried redundancy verdicts, "
      f"{rechecked['value']} aimed re-proofs: ok")
EOF

# ---- coverage objective untouched: default == explicit, byte for byte. ----
"$TPI" insert "$dir/cone16.bench" --log2-threshold -8 --method constructive \
  --out "$dir/cov_default.bench" > "$dir/cov_default.out"
"$TPI" insert "$dir/cone16.bench" --log2-threshold -8 --method constructive \
  --objective coverage \
  --out "$dir/cov_explicit.bench" > "$dir/cov_explicit.out"
# The `wrote <path>` notices name different files by construction;
# everything else must match byte for byte.
grep -v '^wrote ' "$dir/cov_default.out" > "$dir/cov_default.flt"
grep -v '^wrote ' "$dir/cov_explicit.out" > "$dir/cov_explicit.flt"
cmp "$dir/cov_default.flt" "$dir/cov_explicit.flt" \
  || fail "--objective coverage changed the default insert stdout"
cmp "$dir/cov_default.bench" "$dir/cov_explicit.bench" \
  || fail "--objective coverage changed the written netlist"

# ---- atpg counters surface in `tpi atpg --metrics-out` (and stats). ----
"$TPI" atpg "$dir/cone16.bench" --metrics-out "$dir/atpg.metrics.json" > /dev/null
python3 - "$dir/atpg.metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("atpg.cubes_generated", "atpg.backtracks", "atpg.aborted_faults",
            "atpg.decisions", "atpg.implications"):
    m = doc[key]
    assert m["type"] == "counter" and m["value"] >= 0, (key, m)
for key in ("atpg.cubes_generated", "atpg.decisions", "atpg.implications"):
    assert doc[key]["value"] >= 1, (key, doc[key])
rechecked = doc["atpg.redundant_rechecked"]
assert rechecked["type"] == "counter" and rechecked["value"] == 0, rechecked
print("atpg counters: ok")
EOF
"$TPI" stats "$dir/atpg.metrics.json" | grep -q 'atpg.cubes_generated' \
  || fail "tpi stats does not render atpg counters"

echo "patterns smoke: ok"
