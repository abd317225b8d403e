#!/usr/bin/env bash
# Results check: rebuild the Table 2, 3, 4, 6 and 7 and engine-scaling
# experiment binaries and require their output to match the recorded files
# in results/. Timing columns (those whose header ends in `_ms`: Table 2b's
# `dp_ms` and `greedy_ms`, engine_scaling's `engine_ms`) are masked on both
# sides; every other byte must match, so Table 2b's `greedy_cost` pins
# greedy's plans on trees. Tables 3 and 6 take about 15 s each in a
# release build, engine_scaling (five runs a bank) about 2 s, and Tables 2,
# 4 and 7 together about 0.5 s.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

# Replace every `*_ms` column of a tab-separated table with `-`. A file
# may hold several tables: a header is a line that follows the start of
# the file, a `#` comment or a blank line, and is neither itself.
mask_ms() {
  awk -F'\t' -v OFS='\t' '
    /^#/ || NF == 0 { print; fresh = 1; next }
    fresh || NR == 1 {
      fresh = 0
      split("", ms)
      for (i = 1; i <= NF; i++) if ($i ~ /_ms$/) ms[i] = 1
      print
      next
    }
    { for (i in ms) $i = "-"; print }
  ' "$1"
}

binaries=(table2_tree_optimal table3_general table4_threshold table6_topoff table7_ablation engine_scaling)
cargo build --release -q -p tpi-bench "${binaries[@]/#/--bin=}"
status=0
for bin in "${binaries[@]}"; do
  "$target/release/$bin" > "$dir/$bin.txt"
  if diff <(mask_ms "results/$bin.txt") <(mask_ms "$dir/$bin.txt"); then
    echo "$bin: matches results/$bin.txt"
  else
    echo "$bin: differs from results/$bin.txt" >&2
    status=1
  fi
done
exit "$status"
