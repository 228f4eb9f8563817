#!/usr/bin/env bash
# Runs every target of the sweeps binary (`sweeps <name> 2 --jobs 2`) in a
# temporary directory and compares its outputs with the committed goldens
# under tests/golden/sweeps/: every CSV and telemetry JSONL through
# scripts/compare_results.py (no protocol may differ, not even in engine
# counters), every stdout byte for byte with cmp, and the file lists.
#
# The target names are the rows of the sweeps binary's table, in order,
# as its usage message lists them.
#
# Usage: scripts/check_sweep_goldens.sh
#        GOLDEN_REGEN=1 scripts/check_sweep_goldens.sh   # rewrite the goldens
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
golden="$root/tests/golden/sweeps"
bin_dir="${CARGO_TARGET_DIR:-$root/target}/release"

cargo build --release --offline -q -p bench --manifest-path "$root/Cargo.toml"
targets=$("$bin_dir/sweeps" 2>&1 | sed -n 's/^targets: //p' || true)
[ -n "$targets" ] || { echo "FAILED: sweeps lists no targets" >&2; exit 1; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/stdout"
for target in $targets; do
    (cd "$work" && "$bin_dir/sweeps" "$target" 2 --jobs 2 > "stdout/$target.txt" 2> /dev/null) ||
        { echo "FAILED: $target exited nonzero" >&2; exit 1; }
done

if [ -n "${GOLDEN_REGEN:-}" ]; then
    rm -rf "$golden"
    mkdir -p "$golden"
    cp -r "$work/results" "$work/stdout" "$golden/"
    echo "regenerated $golden"
    exit 0
fi

status=0
listing() { (cd "$1" && find . -type f | sort); }
if ! diff <(listing "$golden") <(listing "$work"); then
    echo "VIOLATION: output file lists differ (< golden, > this build)"
    status=1
fi
python3 "$root/scripts/compare_results.py" "$golden/results" "$work/results" \
    --engine-only NONE || status=1
differing=0
for out in "$golden"/stdout/*.txt; do
    cmp "$out" "$work/stdout/$(basename "$out")" || differing=$((differing + 1))
done
echo "stdout files compared: $(ls "$golden"/stdout | wc -l), differing: $differing"
[ "$differing" -eq 0 ] || status=1
echo "$([ "$status" -eq 0 ] && echo OK || echo FAILED): sweep goldens"
exit "$status"
