#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#       (this is the form BENCHMARK.json's "command" is called in)
#   benchmark/run.sh [--runs N] [--seconds S] [--smoke]
#       every workload: N untraced runs on seeds 1..N plus one traced run,
#       results under benchmark/out/results-<time>/ and a summary table.
#       --smoke is one 3-second run of each kind per workload (< 60 s).
#
# Either way it first builds what it measures, from source, into one target
# directory: the root workspace's mf-served and subsolve_worker, and mfbench.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ]; then
    echo "benchmark/run.sh: the repository's sources are not here — nothing to measure" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
cargo build --release --offline --quiet -p serve -p renovation --bins
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
mfbench="$CARGO_TARGET_DIR/release/mfbench"

case "${1:-}" in
--workload | --seed | --seconds | --trace) exec "$mfbench" "$@" ;;
esac

runs=5 seconds=20
while [ $# -gt 0 ]; do
    case "$1" in
    --runs) runs="$2" && shift 2 ;;
    --seconds) seconds="$2" && shift 2 ;;
    --smoke) runs=1 seconds=3 && shift ;;
    *) echo "benchmark/run.sh: unknown argument $1" >&2 && exit 2 ;;
    esac
done
out="benchmark/out/results-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
# One line per run: workload, seed, trace flag, result object.
one_run() {
    echo "== $1 seed $2 trace $3" >&2
    printf '%s\t%s\t%s\t' "$1" "$2" "$3" >>"$out/runs.tsv"
    "$mfbench" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
        2>>"$out/log.txt" | tail -n 1 >>"$out/runs.tsv"
}
for w in $("$mfbench" list); do
    for seed in $(seq 1 "$runs"); do
        one_run "$w" "$seed" 0
    done
    one_run "$w" 1 1
done
python3 benchmark/summarize.py "$out/runs.tsv" | tee "$out/summary.txt"
echo "results in $out" >&2
