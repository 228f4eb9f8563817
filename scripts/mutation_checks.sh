#!/usr/bin/env bash
# Shows that tests still catch the faults they were written for.
#
# Each tests/mutations/*.patch breaks the program on purpose and names,
# on a line "Must fail: cargo test ...", the one test that must catch it.
# For each patch, this script applies it to a temporary copy of the
# working tree (tracked and untracked files, ignored ones left out), runs
# only that test and requires it to fail; the same test must pass without
# the patch. A patch that no longer applies, a mutant that does not build
# and a test that passes on the mutant all count as failures, and the
# script exits 1 if any patch fails.
#
# Usage: scripts/mutation_checks.sh [PATCH...]   (default: every patch)
# Builds go to a temporary target directory; set MUTATION_TARGET_DIR to
# keep them between invocations.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR="${MUTATION_TARGET_DIR:-$work/target}"

if [ "$#" -eq 0 ]; then
    set -- "$root"/tests/mutations/*.patch
fi

tree="$work/tree"
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    xargs -0 tar -cf - --no-recursion --ignore-failed-read) | tar -xf - -C "$tree"

failures=0
for patch in "$@"; do
    name=$(basename "$patch" .patch)
    command=$(sed -n 's/^Must fail: //p' "$patch" | head -n 1)
    if [ -z "$command" ]; then
        echo "FAIL $name: no 'Must fail:' line"
        failures=$((failures + 1))
        continue
    fi
    # The named test must pass on the unmutated tree, or its failure on
    # the mutant would show nothing.
    if ! (cd "$tree" && $command >"$work/test.log" 2>&1); then
        echo "FAIL $name: \`$command\` fails without the mutation"
        tail -n 20 "$work/test.log" | sed 's/^/    /'
        failures=$((failures + 1))
        continue
    fi
    if ! (cd "$tree" && git apply "$patch" 2>"$work/apply.log"); then
        echo "FAIL $name: the patch no longer applies"
        sed 's/^/    /' "$work/apply.log"
        failures=$((failures + 1))
        continue
    fi
    # Build first, so a mutant that does not compile is told apart from
    # one the test catches.
    if ! (cd "$tree" && ${command%% -- *} --no-run >"$work/build.log" 2>&1); then
        echo "FAIL $name: the mutant does not build"
        tail -n 20 "$work/build.log" | sed 's/^/    /'
        failures=$((failures + 1))
    elif (cd "$tree" && $command >"$work/test.log" 2>&1); then
        echo "FAIL $name: \`$command\` passed (or matched no test) on the mutant"
        failures=$((failures + 1))
    elif grep -q "test result: FAILED" "$work/test.log"; then
        echo "ok   $name: \`$command\` failed as it must"
    else
        echo "FAIL $name: \`$command\` stopped without a test failure"
        tail -n 20 "$work/test.log" | sed 's/^/    /'
        failures=$((failures + 1))
    fi
    (cd "$tree" && git apply -R "$patch")
done

if [ "$failures" -ne 0 ]; then
    echo "$failures of $# mutation checks failed"
    exit 1
fi
echo "all $# mutation checks failed their tests as they must"
