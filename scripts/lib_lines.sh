#!/bin/sh
# Print the library's size as ROADMAP counts it: the lines before the first
# column-0 `#[cfg(test)]` of each tracked `.rs` file under `crates/*/src`,
# `crates/shims/*/src` and `src/`, leaving out `bin/` targets (the benchmark
# package's `crates/bench/src/bin/` among them), and how many of those lines
# declare a `pub fn`.
#
# Run from anywhere inside the repository: `sh scripts/lib_lines.sh`.
set -eu
cd "$(git rev-parse --show-toplevel)"
git ls-files -- 'crates/*/src/*.rs' 'src/*.rs' | grep -v '/bin/' | sort -u |
    while IFS= read -r file; do
        awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$file"
    done |
    awk '/^[[:space:]]*pub fn / { pub_fns++ }
         END { printf "library lines: %d\npub fns: %d\n", NR, pub_fns }'
