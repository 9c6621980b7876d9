#!/bin/sh
# Allocations per warm query of the `cached_analytics` replica
# (`llmsql_workload::counters`), counted by the preloaded allocation counter
# `scripts/count_mallocs.c`: the `counters` binary runs the replica's
# warm-up and then K warm passes, once at K = 2 and once at K = 6, and the
# difference in mallocs over the difference in queries is what one warm
# query allocates — set-up and warm-up cancel. Rounded to the nearest
# allocation. On a paused clock and one thread the count repeats run to run.
# The bytes those allocations ask for, differenced the same way, are printed
# beside it (report only).
#
#   sh scripts/allocations.sh                  # print the count and the bytes
#   sh scripts/allocations.sh --check FILE     # and fail if the count is above FILE's
#
# FILE holds lines `<scenario>: <allocations>` (tests/snapshots/allocations.txt);
# a change that raises the count updates the file and names the cause.
set -eu
cd "$(git rev-parse --show-toplevel)"
cargo build --release --quiet -p llmsql-workload --bin counters
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
gcc -O2 -shared -fPIC -o "$scratch/count_mallocs.so" scripts/count_mallocs.c
# Prints "<queries> <mallocs> <bytes>" for one run of K warm passes.
run() {
    LD_PRELOAD="$scratch/count_mallocs.so" target/release/counters --warm-passes "$1" \
        >"$scratch/out" 2>"$scratch/err"
    queries=$(awk '/^queries / { print $2 }' "$scratch/out")
    mallocs=$(awk '/^mallocs / { print $2, $4 }' "$scratch/err")
    echo "$queries $mallocs"
}
low=$(run 2)
high=$(run 6)
count=$(echo "$low $high" | awk '{ printf "%.0f", ($5 - $2) / ($4 - $1) }')
bytes=$(echo "$low $high" | awk '{ printf "%.0f", ($6 - $3) / ($4 - $1) }')
echo "cached_analytics replica: $count"
echo "bytes per warm query: $bytes"
if [ "${1:-}" = "--check" ]; then
    committed=$(awk -F': ' '/^cached_analytics replica: / { print $2 }' "$2")
    if [ "$count" -gt "$committed" ]; then
        echo "allocations per warm query rose from $committed to $count:" \
            "update $2 and name the cause" >&2
        exit 1
    fi
    echo "at most the committed $committed"
fi
