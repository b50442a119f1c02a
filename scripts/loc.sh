#!/usr/bin/env bash
# Size of the library code, by the rule every size line in ROADMAP.md and
# CHANGES.md uses: lines of crates/*/src/**/*.rs that are not blank, do not
# start with `//`, and lie above the file's first `#[cfg(test)]`.
set -euo pipefail
cd "$(dirname "$0")/.."
for crate in crates/*/; do
    find "$crate/src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$crate")" '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && NF && $1 !~ /^\/\// { n++ }
        END { printf "%-10s %6d\n", crate, n }'
done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "total", total }'
