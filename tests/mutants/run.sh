#!/usr/bin/env bash
# Mutation witness: each patch in tests/mutants/ breaks the program on
# purpose, and the tests its header names must catch it.
#
#   tests/mutants/run.sh [REV]
#
# Exports REV (default HEAD; `git stash create` names the uncommitted tree)
# into a clean tree under MUTANTS_DIR (default target/mutants), with its own
# build directory beside it. Every test a patch names (one `must-fail:` line
# each: the cargo package/target selection, then the exact test name) must
# pass on the clean tree. Then, patch by patch, the runner applies the
# mutant, runs its named tests in release, and reverts it; each must fail.
# Prints one row per (mutant, test) and the wall time.
#
# Fails when a named test fails on the clean tree, a patch no longer
# applies (a refactor moved the code it breaks: update the patch), or a
# named test passes under its mutant (the test does not bite).
set -euo pipefail

repo="$(cd "$(dirname "$0")/../.." && pwd)"
rev="${1:-HEAD}"
dir="${MUTANTS_DIR:-$repo/target/mutants}"
tree="$dir/tree"
export CARGO_TARGET_DIR="$dir/target"
started=$(date +%s)

# An exported tree with a repository of its own, so that `git apply` works
# at its root and the checkout under test is never touched.
rm -rf "$tree"
mkdir -p "$tree"
git -C "$repo" archive "$rev" | tar -x -C "$tree"
git -C "$tree" init -q

# Runs one named test in the tree: prints pass, fail or error (it did not
# build, or the name matched no test).
run_test() {
    local selection name out
    selection="${1% *}"
    name="${1##* }"
    # shellcheck disable=SC2086 # the selection is several arguments
    out=$(cd "$tree" && cargo test --release --offline -q $selection -- --exact "$name" 2>&1) || true
    if grep -q "test result: ok. 1 passed" <<<"$out"; then
        echo pass
    elif grep -q "test result: FAILED. 0 passed; 1 failed" <<<"$out"; then
        echo fail
    else
        echo error
        printf '%s\n' "$out" | tail -n 20 >&2
    fi
}

tests_of() {
    sed -n 's/^must-fail: //p' "$1"
}

status=0
printf '%-28s %-8s %s\n' mutant result test
while read -r test; do
    result=$(run_test "$test")
    printf '%-28s %-8s %s\n' "(clean)" "$result" "$test"
    [ "$result" = pass ] || status=1
done < <(for patch in "$repo"/tests/mutants/*.patch; do tests_of "$patch"; done | sort -u)
if [ $status -ne 0 ]; then
    echo "the clean tree fails a named test" >&2
    exit 1
fi

for patch in "$repo"/tests/mutants/*.patch; do
    mutant=$(basename "$patch" .patch)
    if ! git -C "$tree" apply "$patch"; then
        printf '%-28s %-8s %s\n' "$mutant" "stale" "(the patch no longer applies)"
        status=1
        continue
    fi
    while read -r test; do
        result=$(run_test "$test")
        case $result in
            fail) verdict=killed ;;
            pass) verdict=SURVIVED status=1 ;;
            *) verdict=error status=1 ;;
        esac
        printf '%-28s %-8s %s\n' "$mutant" "$verdict" "$test"
    done < <(tests_of "$patch")
    git -C "$tree" apply -R "$patch"
done
echo "wall time: $(($(date +%s) - started)) s"
exit $status
