#!/usr/bin/env bash
# The instrument index in docs/OBSERVABILITY.md and the registration
# sites in src/ must name the same metrics, in both directions: extract
# the instrument names from counter("caldb...")/gauge(...)/histogram(...)
# registration sites and require each to appear, backtick-wrapped, in the
# "### Instrument index" section; and require every backticked caldb.*
# name in that section to be registered in src/, so a deleted instrument
# cannot linger in the index.
#
#   tools/lint_metrics.sh
#
# Registration names are string literals by convention (the registry
# also accepts computed names, but src/ never uses them — this lint is
# what keeps it that way, since a computed name would escape the doc
# check silently).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
doc="$repo_root/docs/OBSERVABILITY.md"

names="$(grep -rhoE '(counter|gauge|histogram)\("caldb\.[A-Za-z0-9_.]+"' \
              "$repo_root/src" |
         sed -E 's/^[a-z]+\("//; s/"$//' | sort -u)"

# The index section runs from its heading to the next heading of level 2
# or 3.
indexed="$(awk '/^### Instrument index/ {on = 1; next}
                on && /^##/ {exit}
                on' "$doc" |
           grep -oE '`caldb\.[A-Za-z0-9_.]+`' | tr -d '`' | sort -u)"

missing=0
while IFS= read -r name; do
  if ! grep -qxF "$name" <<< "$indexed"; then
    echo "undocumented metric: $name (add to docs/OBSERVABILITY.md)" >&2
    missing=1
  fi
done <<< "$names"
while IFS= read -r name; do
  if ! grep -qxF "$name" <<< "$names"; then
    echo "unregistered metric in docs/OBSERVABILITY.md: $name" >&2
    missing=1
  fi
done <<< "$indexed"

if [[ $missing -ne 0 ]]; then
  exit 1
fi
echo "lint_metrics: $(wc -l <<< "$names") instruments, documented and" \
     "indexed both ways"
