#!/usr/bin/env bash
# Public items no other file calls: candidates for deletion.
#
# Prints `file:line: kind name` for every `pub` fn, struct, enum, trait,
# const, static or type alias in the non-test part of a `.rs` file under
# `crates/*/src` (the vendored shims under `crates/compat` excluded) whose
# name, as a whole word, appears in the non-test code of no other file.
# Non-test code is cut the way `scripts/nontest_loc.sh` cuts it (up to the
# first `#[cfg(test)]` line directly followed by a `mod` line), and comment
# lines do not count as callers. The code searched is `crates/*/src`,
# `examples/` and the standalone benchmark's `benchmark/src`; `crates/*/tests`
# and `tests/` are test code and are not searched.
#
# A listed item may still be used inside its own file (then it need not be
# `pub`), and a name shared by two items hides both: each line is a lead to
# verify, not a verdict. `pub(crate)` items are the compiler's job.
#
# A lead that stays public is listed in `scripts/dead_pub.allow` as
# `file kind name — reason`. The script exits 1 when a lead is missing from
# that file or a line of it is no longer a lead, so a new public item needs
# a caller, a narrower visibility or a reason.
#
# Usage: scripts/dead_pub.sh [REPO_ROOT]   (default: the current directory)
set -euo pipefail

root=${1:-.}
cd "$root"

corpus=$(mktemp)
leads=$(mktemp)
trap 'rm -f "$corpus" "$leads"' EXIT

files() {
    find crates/*/src examples benchmark/src -name '*.rs' -not -path 'crates/compat/*' 2>/dev/null | sort
}

# Every non-test, non-comment line as `file:line:text`.
files | xargs awk '
    FNR == 1 { cut = 0; held = 0 }
    cut { next }
    held {
        if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) { cut = 1; held = 0; next }
        held = 0
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    /^[[:space:]]*\/\// { next }
    { print FILENAME ":" FNR ":" $0 }
' >"$corpus"

grep -E '^crates/[^:]+:[0-9]+:[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|trait|const|static|type)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*' "$corpus" |
    sed -E 's/^([^:]+):([0-9]+):[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|trait|const|static|type)[[:space:]]+([A-Za-z_][A-Za-z0-9_]*).*/\1 \2 \5 \6/' |
    while read -r file line kind name; do
        # Counting reads every line, so no grep in the pipe dies of SIGPIPE.
        callers=$(grep -w -- "$name" "$corpus" | grep -vc "^$file:" || true)
        if [ "$callers" = 0 ]; then
            echo "$file:$line: $kind $name"
        fi
    done | tee "$leads"

allow=scripts/dead_pub.allow
[ -f "$allow" ] || exit 0
# Both sides as `file kind name`, sorted: comm -23 is what only the left has.
status=0
while read -r key; do
    echo "dead_pub: not in $allow: $key" >&2
    status=1
done < <(comm -23 <(sed -E 's/^([^:]+):[0-9]+: /\1 /' "$leads" | sort) \
    <(grep -Ev '^[[:space:]]*(#|$)' "$allow" | sed -E 's/[[:space:]]+—.*$//' | sort))
while read -r key; do
    echo "dead_pub: listed in $allow but no longer a lead: $key" >&2
    status=1
done < <(comm -13 <(sed -E 's/^([^:]+):[0-9]+: /\1 /' "$leads" | sort) \
    <(grep -Ev '^[[:space:]]*(#|$)' "$allow" | sed -E 's/[[:space:]]+—.*$//' | sort))
exit $status
