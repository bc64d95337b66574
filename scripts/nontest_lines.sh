#!/usr/bin/env sh
# Non-test source lines per crate and in total: the lines of each
# `crates/*/src/**/*.rs` file before its first `#[cfg(test)]` at column
# 0, files named `*tests.rs` left out. A report, not a gate.
#
#   scripts/nontest_lines.sh
set -eu

cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=$(find "${crate}src" -name '*.rs' ! -name '*tests.rs' -exec awk '
        FNR == 1 { done = 0 }
        /^#\[cfg\(test\)\]/ { done = 1 }
        !done { n++ }
        END { print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
