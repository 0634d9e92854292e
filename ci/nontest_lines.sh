#!/usr/bin/env bash
# The round's reported size metric, computed one way: for every Rust
# source file under crates/*/src and src/, the lines before the file's
# first top-level (column-0) `#[cfg(test)]` — its test module — or the
# whole file when it has none. Prints the total with and without
# crates/bench; `-v` adds one line per file.
#
#   ci/nontest_lines.sh [-v] [repo-root]
set -euo pipefail

verbose=0
if [ "${1:-}" = "-v" ]; then
    verbose=1
    shift
fi
cd "${1:-$(dirname "$0")/..}"

find crates/*/src src -name '*.rs' | LC_ALL=C sort | xargs awk -v verbose="$verbose" '
    FNR == 1 { counting = 1 }
    counting && /^#\[cfg\(test\)\]/ { counting = 0 }
    counting {
        lines[FILENAME]++
        total++
        if (FILENAME !~ /^crates\/bench\//) core++
    }
    END {
        if (verbose) for (f in lines) printf "%6d %s\n", lines[f], f | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "non-test lines: %d (without crates/bench: %d)\n", total, core
    }'
