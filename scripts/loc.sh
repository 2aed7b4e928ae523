#!/usr/bin/env bash
# Size of the workspace's non-test code: non-blank lines of
# `crates/**/*.rs` that are not `//` comments (doc comments included),
# counted above each file's top-level `#[cfg(test)]` + `mod tests`.
#
#   scripts/loc.sh            # prints one number
#   scripts/loc.sh --files    # one "count path" line per file, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

per_file() {
    find crates -name '*.rs' -not -path '*/target/*' | LC_ALL=C sort | while read -r f; do
        awk -v path="$f" '
            pending && /^mod tests *\{/ { exit }
            pending { pending = 0; n++ }
            /^#\[cfg\(test\)\]$/ { pending = 1; next }
            { t = $0; sub(/^[ \t]+/, "", t) }
            t != "" && substr(t, 1, 2) != "//" { n++ }
            END { print n + 0, path }
        ' "$f"
    done
}

if [ "${1:-}" = "--files" ]; then
    per_file | awk '{ print; total += $1 } END { print total, "total" }'
else
    per_file | awk '{ total += $1 } END { print total }'
fi
