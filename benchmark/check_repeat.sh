#!/usr/bin/env bash
# Two full sets of runs of the same code, then the acceptance rule: every
# end-to-end metric's spread within its bound and the second set's medians
# no worse than the first's by more than the bound. Non-zero exit when the
# benchmark disagrees with itself — fix the benchmark, not the bound.
#
#   benchmark/check_repeat.sh [--runs N] [--seconds S]     (default 10 runs)
set -euo pipefail
cd "$(dirname "$0")/.."
args=(--runs 10 "$@")
sets=()
for label in A B; do
    benchmark/run.sh "${args[@]}" >/dev/null
    latest="$(ls -d benchmark/out/results-* | tail -n 1)"
    mv "$latest" "$latest-$label"
    sets+=("$latest-$label/runs.tsv")
done
python3 benchmark/summarize.py --compare "${sets[@]}"
