#!/usr/bin/env bash
# The round's reported size metric, computed one way: for every Rust
# source file under crates/*/src and src/, the lines before the file's
# first top-level (column-0) `#[cfg(test)]` — its test module — or the
# whole file when it has none. Prints the total with and without
# crates/bench; `-v` adds one line per file. `--against <rev>` counts a
# `git archive` of <rev> the same way and prints, for every file whose
# count changed, its count before and after and the delta, then the
# totals before and after.
#
#   ci/nontest_lines.sh [-v] [repo-root]
#   ci/nontest_lines.sh --against <rev> [repo-root]
set -euo pipefail

verbose=0
against=
case "${1:-}" in
    -v)
        verbose=1
        shift
        ;;
    --against)
        against=${2:?--against needs a revision}
        shift 2
        ;;
esac
cd "${1:-$(dirname "$0")/..}"

# "<lines> <file>" for every counted file under the current directory,
# sorted by file name.
per_file() {
    find crates/*/src src -name '*.rs' | LC_ALL=C sort | xargs awk '
        FNR == 1 { counting = 1 }
        counting && /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines[FILENAME]++ }
        END { for (f in lines) print lines[f], f }' | LC_ALL=C sort -k2
}

if [ -z "$against" ]; then
    per_file | awk -v verbose="$verbose" '
        verbose { printf "%6d %s\n", $1, $2 }
        { total += $1; if ($2 !~ /^crates\/bench\//) core += $1 }
        END { printf "non-test lines: %d (without crates/bench: %d)\n", total, core }'
    exit
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git archive "$against" -- crates src | tar -x -C "$tmp/tree"
(cd "$tmp/tree" && per_file) > "$tmp/before"
per_file > "$tmp/after"
awk '
    function tally(side, n, f) {
        total[side] += n
        if (f !~ /^crates\/bench\//) core[side] += n
    }
    NR == FNR { before[$2] = $1; files[$2]; tally(0, $1, $2); next }
    { after[$2] = $1; files[$2]; tally(1, $1, $2) }
    END {
        printf "%6s %6s %6s %s\n", "before", "after", "delta", "file"
        for (f in files)
            if (before[f] + 0 != after[f] + 0)
                printf "%6d %6d %+6d %s\n", before[f], after[f], after[f] - before[f], f | "LC_ALL=C sort -k4"
        close("LC_ALL=C sort -k4")
        printf "non-test lines: %d -> %d (%+d); without crates/bench: %d -> %d (%+d)\n",
            total[0], total[1], total[1] - total[0], core[0], core[1], core[1] - core[0]
    }' "$tmp/before" "$tmp/after"
