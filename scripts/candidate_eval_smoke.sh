#!/usr/bin/env bash
# Candidate-eval A/B smoke: `tpi insert` must commit bit-identical plans
# under `--candidate-eval batched` (the default compile-once scorer) and
# `--candidate-eval legacy` (the clone-and-resimulate oracle), for the
# engine-backed constructive method, the from-scratch constructive
# baseline, and the greedy analytic search. Both the printed insertion
# report (plan, costs, measured coverage) and the written post-insertion
# netlist are diffed byte-for-byte. The constructive methods also run on
# a small circuit written below with the structures the batched
# scorer's cut-set argument has to get right.
set -euo pipefail

TPI="${TPI:-target/release/tpi}"
CIRCUIT="${CIRCUIT:-results/dag400_s5.bench}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

# Constant nets, a gate reading one net twice, an XOR/XNOR chain, an
# 8-input NAND, and stems (`twice`, `xb`) that are primary outputs and
# also feed gates; the wide AND tail makes it random-pattern resistant.
cat > "$dir/awkward.bench" <<'BENCH'
INPUT(x0)
INPUT(x1)
INPUT(x2)
INPUT(x3)
INPUT(x4)
INPUT(x5)
INPUT(x6)
INPUT(x7)
INPUT(x8)
INPUT(x9)
INPUT(x10)
INPUT(x11)
INPUT(x12)
INPUT(x13)
INPUT(x14)
INPUT(x15)
zero = CONST0()
one = CONST1()
twice = NAND(x0, x0)
gated = AND(zero, x1)
held = NOR(one, x2)
xa = XOR(twice, x3)
xb = XNOR(xa, gated, x4)
xc = XOR(xb, held)
wide = NAND(x5, x6, x7, x8, x9, x10, x11, xc)
left = AND(x12, x13, x14, x15)
right = AND(x1, x2, x3, x4)
deep = AND(left, right, twice)
tail = AND(deep, xb, wide)
OUTPUT(twice)
OUTPUT(xb)
OUTPUT(tail)
BENCH

ab() {
  local circuit="$1" tag="$2" method="$3"
  for mode in batched legacy; do
    "$TPI" insert "$circuit" --log2-threshold -10 \
      --method "$method" --candidate-eval "$mode" \
      --out "$dir/$tag-$method-$mode.bench" \
      > "$dir/$tag-$method-$mode.txt" 2> "$dir/$tag-$method-$mode.err"
  done
  # The "wrote <file>" line embeds the per-mode output path; everything
  # else (plan, costs, measured coverage) must match byte-for-byte.
  diff <(grep -v '^wrote ' "$dir/$tag-$method-batched.txt") \
       <(grep -v '^wrote ' "$dir/$tag-$method-legacy.txt")
  diff "$dir/$tag-$method-batched.bench" "$dir/$tag-$method-legacy.bench"
  echo "$tag $method: batched ≡ legacy"
}

for method in constructive constructive-baseline greedy; do
  ab "$CIRCUIT" "$(basename "$CIRCUIT" .bench)" "$method"
done
for method in constructive constructive-baseline; do
  ab "$dir/awkward.bench" awkward "$method"
done

echo "candidate-eval smoke: ok (plans and modified netlists bit-identical)"
