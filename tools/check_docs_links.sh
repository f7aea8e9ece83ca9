#!/usr/bin/env bash
# Documentation consistency gate, run by CI (docs-check job) and as the
# `tool_docs_check` ctest:
#
#  1. Every relative markdown link in every tracked *.md file must point at
#     an existing file or directory.
#  2. docs/METRICS.md and src/common/metrics_names.h must agree exactly:
#     every registered metric name is documented, and every documented
#     metric name exists in the header (the single source of truth).
#  3. docs/STATIC_ANALYSIS.md's lint-check table and
#     `tools/nncell_lint.py --list-checks` must agree exactly: every
#     registered check is documented and every documented check exists.
#  4. Each format document and the header that defines its constants must
#     agree: every `kName = value` constant in the header is documented
#     with its exact value, and every constant the document names still
#     exists in the header (or the row's extra headers). One row per pair:
#     PERSISTENCE.md / durable_format.h (on-disk format), SERVING.md /
#     protocol.h (wire protocol), KERNELS.md / kernels.h (kernel layout),
#     SHARDING.md / shard_format.h (sharded-index format), APPROXIMATE.md /
#     approx.h (approximate-tier defaults).
#
# Usage: check_docs_links.sh [repo-root]

set -u

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT" || exit 2

fail=0

# --- 1. dead relative links ------------------------------------------------

if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  md_files=$(git ls-files '*.md')
else
  md_files=$(find . -name '*.md' -not -path './build*' -not -path './.git/*' \
             | sed 's|^\./||')
fi

for f in $md_files; do
  # Inline links: [text](target). Targets split off any #anchor suffix.
  links=$(grep -oE '\]\([^)]+\)' "$f" 2>/dev/null | sed -e 's/^](//' -e 's/)$//')
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [ -z "$target" ] && continue
    if [ "${target#/}" != "$target" ]; then
      resolved=".$target"            # leading / = repo-root relative
    else
      resolved="$(dirname "$f")/$target"
    fi
    if [ ! -e "$resolved" ]; then
      echo "DEAD LINK: $f -> $link (resolved: $resolved)"
      fail=1
    fi
  done
done

# --- 2. METRICS.md <-> metrics_names.h ------------------------------------

names_header="src/common/metrics_names.h"
names_doc="docs/METRICS.md"

for required in "$names_header" "$names_doc"; do
  if [ ! -f "$required" ]; then
    echo "MISSING FILE: $required"
    exit 1
  fi
done

# Registered names: the quoted dotted lowercase strings in the header
# (name constants only; units and help texts never match the pattern).
src_names=$(grep -oE '"[a-z0-9_]+(\.[a-z0-9_]+)+"' "$names_header" \
            | tr -d '"' | sort -u)
# Documented names: backticked dotted lowercase tokens in METRICS.md.
doc_names=$(grep -oE '`[a-z0-9_]+(\.[a-z0-9_]+)+`' "$names_doc" \
            | tr -d '`' | sort -u)

undocumented=$(comm -23 <(printf '%s\n' "$src_names") \
                        <(printf '%s\n' "$doc_names"))
if [ -n "$undocumented" ]; then
  echo "UNDOCUMENTED METRICS (in $names_header, missing from $names_doc):"
  printf '  %s\n' $undocumented
  fail=1
fi

stale=$(comm -13 <(printf '%s\n' "$src_names") \
                 <(printf '%s\n' "$doc_names"))
if [ -n "$stale" ]; then
  echo "STALE DOC METRICS (in $names_doc, not registered in $names_header):"
  printf '  %s\n' $stale
  fail=1
fi

# --- 3. STATIC_ANALYSIS.md <-> nncell_lint.py ------------------------------

lint_tool="tools/nncell_lint.py"
sa_doc="docs/STATIC_ANALYSIS.md"

for required in "$lint_tool" "$sa_doc"; do
  if [ ! -f "$required" ]; then
    echo "MISSING FILE: $required"
    exit 1
  fi
done

n_lint_checks=0
if command -v python3 >/dev/null 2>&1; then
  # Registered checks, from the tool itself (the single source of truth).
  tool_checks=$(python3 "$lint_tool" --list-checks | cut -d: -f1 | sort -u)
  # Documented checks: first-column backticked names in the doc's table.
  doc_checks=$(grep -oE '^\| `[a-z0-9-]+` \|' "$sa_doc" \
               | sed -E 's/^\| `([a-z0-9-]+)` \|/\1/' | sort -u)

  undocumented_checks=$(comm -23 <(printf '%s\n' "$tool_checks") \
                                 <(printf '%s\n' "$doc_checks"))
  if [ -n "$undocumented_checks" ]; then
    echo "UNDOCUMENTED LINT CHECKS (registered in $lint_tool, missing from" \
         "$sa_doc's table):"
    printf '  %s\n' $undocumented_checks
    fail=1
  fi

  stale_checks=$(comm -13 <(printf '%s\n' "$tool_checks") \
                          <(printf '%s\n' "$doc_checks"))
  if [ -n "$stale_checks" ]; then
    echo "STALE DOC LINT CHECKS (in $sa_doc, not registered in $lint_tool):"
    printf '  %s\n' $stale_checks
    fail=1
  fi
  n_lint_checks=$(printf '%s\n' "$tool_checks" | wc -l | tr -d ' ')
else
  echo "note: python3 not found; skipping lint-check table drift check"
fi

# --- 4. format documents <-> constant headers ------------------------------

# check_constants LABEL DOC HEADER [EXTRA_HEADER...]
#
# Forward: every `inline constexpr ... kName = value;` constant in HEADER
# must appear in DOC as "kName = value" (the doc's backticks are stripped,
# integer suffixes normalized away). A string constant (quoted value) only
# needs its name and its unquoted value to appear somewhere in the doc.
# Reverse: every backticked kConstant DOC names must still be defined in
# HEADER or one of the EXTRA_HEADERs. Sets n_consts[LABEL] to the number of
# header constants checked.
declare -A n_consts
check_constants() {
  local label=$1 doc=$2 header=$3
  shift 3
  local f name value c doc_flat n=0
  for f in "$doc" "$header" "$@"; do
    if [ ! -f "$f" ]; then
      echo "MISSING FILE: $f"
      exit 1
    fi
  done
  doc_flat=$(tr -d '`' < "$doc")
  while read -r name value; do
    [ -z "$name" ] && continue
    n=$((n + 1))
    if [[ "$value" == \"*\" ]]; then
      value="${value%\"}"
      value="${value#\"}"
      if ! printf '%s' "$doc_flat" | grep -qF "$name" ||
         ! printf '%s' "$doc_flat" | grep -qF "$value"; then
        echo "UNDOCUMENTED $label CONSTANT: $name = \"$value\"" \
             "(missing from $doc)"
        fail=1
      fi
      continue
    fi
    value=$(printf '%s' "$value" | sed -E 's/U?L?L?$//')
    if ! printf '%s' "$doc_flat" | grep -qF "$name = $value"; then
      echo "$label CONSTANT DRIFT: $doc must state \"$name = $value\"" \
           "(from $header)"
      fail=1
    fi
  done <<EOF
$(sed -nE 's/^inline constexpr [A-Za-z0-9_]+ (k[A-Za-z0-9]+)(\[\])? = ([^;]+);.*/\1 \3/p' "$header")
EOF
  n_consts[$label]=$n

  for c in $(grep -oE '`k[A-Z][A-Za-z0-9]*`' "$doc" | tr -d '`' | sort -u); do
    if ! grep -qE "\b$c\b" "$header" "$@"; then
      echo "STALE DOC CONSTANT: $c (in $doc, not defined in $header $*)"
      fail=1
    fi
  done
}

fp_header="src/common/failpoint.h"
wire_header="src/server/protocol.h"
# One row per document: label, document, header, then the extra headers
# the document may also name.
while read -r label doc header extra; do
  # shellcheck disable=SC2086  # $extra is a list of header paths
  check_constants "$label" "$doc" "$header" $extra
done <<EOF
FORMAT  docs/PERSISTENCE.md   src/storage/durable_format.h  $fp_header
WIRE    docs/SERVING.md       $wire_header                  $fp_header
KERNEL  docs/KERNELS.md       src/common/kernels/kernels.h  src/common/kernels/soa_store.h
SHARD   docs/SHARDING.md      src/shard/shard_format.h      $fp_header
APPROX  docs/APPROXIMATE.md   src/common/approx.h           $wire_header $fp_header
EOF

if [ "$fail" -eq 0 ]; then
  n_links=$(printf '%s\n' "$md_files" | wc -l | tr -d ' ')
  n_names=$(printf '%s\n' "$src_names" | wc -l | tr -d ' ')
  echo "docs check OK: $n_links markdown files, $n_names metrics," \
       "${n_consts[FORMAT]} format constants," \
       "${n_consts[WIRE]} wire constants," \
       "$n_lint_checks lint checks, ${n_consts[KERNEL]} kernel constants," \
       "${n_consts[SHARD]} shard constants, ${n_consts[APPROX]} approx" \
       "constants in sync"
fi
exit "$fail"
