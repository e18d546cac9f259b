#!/usr/bin/env bash
# Write the output of every figure bench (at --scale=0.02) and of the
# quickstart example to OUT_DIR, one file per binary. The simulator is
# deterministic, so two builds that model the same machine give
# byte-identical files:
#
#   scripts/fig_outputs.sh parent/build out-parent
#   scripts/fig_outputs.sh build out-change
#   diff -r out-parent out-change
#
# Usage: scripts/fig_outputs.sh BUILD_DIR OUT_DIR
# Exits non-zero if a binary is missing or fails.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 BUILD_DIR OUT_DIR" >&2
    exit 2
fi
build_dir="$1"
out_dir="$2"
mkdir -p "$out_dir"

shopt -s nullglob
figs=("$build_dir"/bench/fig*)
if [[ ${#figs[@]} -eq 0 ]]; then
    echo "no bench/fig* binaries under $build_dir" >&2
    exit 1
fi
for bin in "${figs[@]}"; do
    [[ -x "$bin" && -f "$bin" ]] || continue
    name="$(basename "$bin")"
    "$bin" --scale=0.02 > "$out_dir/$name.txt"
done
"$build_dir/examples/quickstart" > "$out_dir/quickstart.txt"
echo "wrote $(ls "$out_dir" | wc -l) outputs to $out_dir"
