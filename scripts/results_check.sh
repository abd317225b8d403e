#!/usr/bin/env bash
# Results check: rebuild the Table 3, Table 6 and engine-scaling experiment
# binaries and require their output to match the recorded files in
# results/. Timing columns (those whose header ends in `_ms`; only
# engine_scaling's `engine_ms` today) are masked on both sides; every other
# byte must match. The tables take about 15 s each in a release build,
# engine_scaling (five runs a bank) about 2 s.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

# Replace every `*_ms` column of a tab-separated table with `-`. The
# header is the first line that is not a `#` comment.
mask_ms() {
  awk -F'\t' -v OFS='\t' '
    /^#/ { print; next }
    !seen { seen = 1; for (i = 1; i <= NF; i++) if ($i ~ /_ms$/) ms[i] = 1; print; next }
    { for (i in ms) $i = "-"; print }
  ' "$1"
}

binaries=(table3_general table6_topoff engine_scaling)
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
