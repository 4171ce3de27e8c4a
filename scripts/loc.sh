#!/usr/bin/env bash
# Non-blank Rust line counts, the measure a change reports its net LOC
# in. Usage: scripts/loc.sh [DIR]   (DIR defaults to the repo root)
#
#   source    crates/*/src, src and examples: each file up to its first
#             `#[cfg(test)]` line
#   tests     the rest of those files, plus tests/ and crates/*/tests
#   benches   crates/*/benches
#   fixtures  crates/lint/fixtures (scanned by the lint, never compiled)
#
# Prints one line: `source N tests N benches N fixtures N`.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# The .rs files under the given directories, NUL-separated, sorted.
rust_files() {
    find "$@" -name '*.rs' -print0 | sort -z
}

# Non-blank lines of the .rs files under the given directories.
nonblank() {
    rust_files "$@" | xargs -0 cat /dev/null | awk '/[^[:space:]]/ { n++ } END { print n + 0 }'
}

# "source tests" for files that carry their unit tests inline; xargs may
# split the list, so the per-batch sums are added up.
split=$(rust_files crates/*/src src examples | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    /[^[:space:]]/ { if (in_tests) t++; else s++ }
    END { print s + 0, t + 0 }' | awk '{ s += $1; t += $2 } END { print s + 0, t + 0 }')
read -r source inline_tests <<<"$split"
tests=$(nonblank tests crates/*/tests)
benches=$(nonblank crates/*/benches)
fixtures=$(nonblank crates/lint/fixtures)
echo "source $source tests $((inline_tests + tests)) benches $benches fixtures $fixtures"
