#!/usr/bin/env bash
# Results check: rebuild the Table 3 and Table 6 experiment binaries and
# require their output to match the recorded files in results/ byte for
# byte. Neither table prints a timing column, so nothing is masked. Each
# takes about 15 s in a release build.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

cargo build --release -q -p tpi-bench --bin table3_general --bin table6_topoff
status=0
for table in table3_general table6_topoff; do
  "$target/release/$table" > "$dir/$table.txt"
  if diff "results/$table.txt" "$dir/$table.txt"; then
    echo "$table: matches results/$table.txt"
  else
    echo "$table: differs from results/$table.txt" >&2
    status=1
  fi
done
exit "$status"
