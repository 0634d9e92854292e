#!/usr/bin/env bash
# The paper reproduction as a checked invariant: build the crates/bench
# bins in release, run each, and print `sha256  <bin>` of its stdout.
# Everything they print is modelled (simulator, cost model, theorem
# bounds) and therefore bit-reproducible — except two wall-clock tables,
# which are cut before hashing, from their header line to the next blank
# line:
#   ablation            "Ablation 6b …"
#   cholesky_extension  "Real threaded execution …"
#
#   ci/fig_bins.sh [--check] [repo-root]
#
# `--check` compares against the committed ci/fig_bins.sha256 instead of
# printing; a PR that moves a figure regenerates the file
# (`ci/fig_bins.sh > ci/fig_bins.sha256`) and says which lines moved.
set -euo pipefail

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi
cd "${1:-$(dirname "$0")/..}"

cargo build --release --quiet -p calu-bench --bins
target="${CARGO_TARGET_DIR:-target}/release"

hashes() {
    for src in crates/bench/src/bin/*.rs; do
        bin=$(basename "$src" .rs)
        "$target/$bin" |
            awk '/Ablation 6b|Real threaded execution/ { cut = 1 }
                 cut && /^$/ { cut = 0 }
                 !cut' |
            sha256sum | awk -v bin="$bin" '{ print $1 "  " bin }'
    done
}

if [ "$check" = 1 ]; then
    diff -u ci/fig_bins.sha256 <(hashes)
    echo "paper figures: $(wc -l <ci/fig_bins.sha256) bins match ci/fig_bins.sha256"
else
    hashes
fi
