#!/usr/bin/env bash
# Non-test lines of Rust under crates/*/src, per crate and in total.
#
# One definition, so figures from different changes compare like with like:
# every `.rs` file under `crates/*/src` (the vendored shims under
# `crates/compat` excluded) counts each of its lines up to, not including,
# the first `#[cfg(test)]` line that is directly followed by a `mod` line.
# A file without such a line counts whole. Integration tests
# (`crates/*/tests`), benches and examples are not under `src` and never
# count.
#
# Usage: scripts/nontest_loc.sh [REPO_ROOT]   (default: the current directory)
set -euo pipefail

root=${1:-.}
cd "$root"

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = compat ] && continue
    [ -d "$dir/src" ] || continue
    n=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0; held = 0 }
        cut { next }
        held {
            if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) { cut = 1; held = 0; next }
            count++; held = 0
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        { count++ }
        END { print count + 0 }
    ')
    printf '%-12s %7d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %7d\n' total "$total"
