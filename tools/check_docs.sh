#!/usr/bin/env bash
# Documentation consistency checks, run as a ctest and as the CI docs
# job:
#   1. every relative markdown link in *.md and docs/*.md resolves to a
#      file in the tree;
#   2. every `asketch_cli <subcommand>` named in the user-facing docs
#      exists in `asketch_cli` usage output;
#   3. every `--flag` attributed to asketchd / asketch_loadgen in the
#      docs (and every flag in docs/OPERATIONS.md) exists in the usage
#      output of one of the shipped tools;
#   4. the reverse of 3: every `--flag` a shipped tool advertises in
#      its usage output is mentioned somewhere in the user-facing docs
#      (a flag added without documentation fails here);
#   5. the core documentation set exists — a renamed or deleted page
#      fails instead of silently orphaning its inbound references;
#   6. every tool's --help exits nonzero and creates no file in its
#      working directory;
#   7. every backticked repo path (`src/…`, `tests/…`, `tools/…`,
#      `bench/…`, `examples/…`, `docs/…`) in the user-facing docs
#      resolves after brace and glob expansion — to a file or directory,
#      to a binary's source (`tools/make_stream` → make_stream.cc), or
#      to an output directory listed in .gitignore;
#   8. the README "Runnable examples" table and the
#      `asketch_add_example` lines in examples/CMakeLists.txt name the
#      same set of examples.
# The deeper doc pins — PROTOCOL.md constants/opcodes and the
# OPERATIONS.md metric table — are compiled tests (net_protocol_test,
# docs_operations_test); this script covers what grep can.
#
# usage: tools/check_docs.sh [build_dir]
set -u

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
fail=0

# User-facing docs: tool subcommands/flags mentioned here must exist.
USER_DOCS=("$REPO_ROOT/README.md" "$REPO_ROOT/DESIGN.md"
           "$REPO_ROOT/EXPERIMENTS.md" "$REPO_ROOT"/docs/*.md)

# ---------------------------------------------------------------- links
for file in "$REPO_ROOT"/*.md "$REPO_ROOT"/docs/*.md; do
  [ -f "$file" ] || continue
  dir=$(dirname "$file")
  while IFS= read -r link; do
    target=${link%%#*}
    [ -z "$target" ] && continue          # pure #anchor
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    if [ ! -e "$dir/$target" ]; then
      echo "FAIL dead link in ${file#"$REPO_ROOT"/}: ($link)"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$file" | sed 's/^](//; s/)$//')
done

# ----------------------------------------------------- tool usage texts
# Every tool must answer --help (an unrecognized flag) with its usage
# text and a prompt nonzero exit, and must leave its working directory
# as it found it. Each tool runs in its own empty directory, so one that
# takes --help for an output path fails here. Never invoke a tool bare:
# asketchd with no arguments starts a server and blocks.
HELP_DIR=$(mktemp -d)
trap 'rm -rf "$HELP_DIR"' EXIT
ALL_USAGE=""
CLI_USAGE=""
for tool in asketch_cli asketchd asketch_loadgen make_stream \
            asketch_chaosproxy; do
  if [ ! -x "$BUILD_DIR/tools/$tool" ]; then
    echo "FAIL missing binary $BUILD_DIR/tools/$tool (build tools first)"
    exit 1
  fi
  bin="$(cd "$BUILD_DIR/tools" && pwd)/$tool"
  mkdir "$HELP_DIR/$tool"
  usage=$(cd "$HELP_DIR/$tool" && timeout 10 "$bin" --help 2>&1)
  status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL $tool --help exits 0"
    fail=1
  elif [ "$status" -eq 124 ]; then
    echo "FAIL $tool --help did not exit within 10 s"
    fail=1
  fi
  created=$(ls -A "$HELP_DIR/$tool")
  if [ -n "$created" ]; then
    echo "FAIL $tool --help created files in its working directory:" \
         $created
    fail=1
  fi
  ALL_USAGE+="$usage"$'\n'
  [ "$tool" = asketch_cli ] && CLI_USAGE=$usage
done

# ------------------------------------------------- asketch_cli subcmds
# `asketch_cli foo` in docs (prose or fenced code) names a subcommand.
for sub in $(grep -ohE 'asketch_cli +[a-z][a-z-]*' "${USER_DOCS[@]}" \
               2>/dev/null | awk '{print $2}' | sort -u); do
  if ! printf '%s\n' "$CLI_USAGE" | grep -qE "(^|[^a-z-])$sub([^a-z-]|$)"; then
    echo "FAIL documented asketch_cli subcommand '$sub' not in usage output"
    fail=1
  fi
done

# ------------------------------------------------------------- flags
# Flags the docs attribute to the daemon/loadgen inline, plus every
# flag named anywhere in the operator guide.
{
  grep -ohE '(asketchd|asketch_loadgen) +--[a-z][a-z-]*' \
       "${USER_DOCS[@]}" 2>/dev/null | grep -oE '\-\-[a-z-]+'
  grep -ohE '\-\-[a-z][a-z-]*' "$REPO_ROOT/docs/OPERATIONS.md"
} | sort -u | while IFS= read -r flag; do
  if ! printf '%s\n' "$ALL_USAGE" | grep -qF -- "$flag"; then
    echo "FAIL documented flag '$flag' not in any tool's usage output"
    # `while` runs in a subshell: signal through a marker file.
    touch "$BUILD_DIR/.check_docs_flag_fail"
  fi
done
if [ -e "$BUILD_DIR/.check_docs_flag_fail" ]; then
  rm -f "$BUILD_DIR/.check_docs_flag_fail"
  fail=1
fi

# ------------------------------------------- usage ⊆ docs (reverse)
# Every flag a tool's usage output advertises must appear in at least
# one user-facing doc. Usage lines shape flags as `--name` tokens;
# single-letter and non-flag dashes don't match the pattern.
ALL_DOC_TEXT=$(cat "${USER_DOCS[@]}" 2>/dev/null)
for flag in $(printf '%s\n' "$ALL_USAGE" | grep -ohE '\-\-[a-z][a-z-]*' \
                | sort -u); do
  [ "$flag" = "--help" ] && continue   # the conventional meta-flag
  if ! printf '%s\n' "$ALL_DOC_TEXT" | grep -qF -- "$flag"; then
    echo "FAIL tool usage advertises flag '$flag' but no user-facing doc mentions it"
    fail=1
  fi
done

# -------------------------------------------------- core doc set
for doc in README.md DESIGN.md EXPERIMENTS.md docs/ARCHITECTURE.md \
           docs/ALGORITHMS.md docs/OPERATIONS.md docs/PROTOCOL.md; do
  if [ ! -f "$REPO_ROOT/$doc" ]; then
    echo "FAIL core document $doc is missing"
    fail=1
  fi
done

# ------------------------------------------------ backticked paths
# A deleted or renamed file leaves its backticked mentions behind; this
# catches them. One `{a,b}` group is expanded, then the result globbed.
path_resolves() {
  local path=$1
  if [[ $path =~ ^(.*)\{([^{}]*)\}(.*)$ ]]; then
    local head=${BASH_REMATCH[1]} tail=${BASH_REMATCH[3]} alt
    local -a alts
    IFS=, read -ra alts <<<"${BASH_REMATCH[2]}"
    for alt in "${alts[@]}"; do
      path_resolves "$head$alt$tail" || return 1
    done
    return 0
  fi
  compgen -G "$REPO_ROOT/$path" >/dev/null && return 0
  compgen -G "$REPO_ROOT/$path.*" >/dev/null && return 0
  grep -qxF -- "$path" "$REPO_ROOT/.gitignore"
}
for file in "${USER_DOCS[@]}"; do
  while IFS= read -r path; do
    if ! path_resolves "$path"; then
      echo "FAIL stale path in ${file#"$REPO_ROOT"/}: \`$path\`"
      fail=1
    fi
  done < <(grep -ohE \
             '`(src|tests|tools|bench|examples|docs)/[A-Za-z0-9_./*{},-]*`' \
             "$file" | tr -d '`' | sort -u)
done

# ------------------------------------------------- examples table
# The README's example table lists exactly the examples that build.
readme_examples=$(awk '/^Runnable examples/ {on = 1; next}
                       on && /^\|/ {rows = 1; print; next}
                       on && rows {exit}' "$REPO_ROOT/README.md" \
                    | sed -n 's/^| `\([a-z_0-9]*\)` |.*/\1/p' | sort)
built_examples=$(sed -n 's/^asketch_add_example(\([a-z_0-9]*\))$/\1/p' \
                   "$REPO_ROOT/examples/CMakeLists.txt" | sort)
if [ "$readme_examples" != "$built_examples" ]; then
  echo "FAIL README example table and examples/CMakeLists.txt differ:"
  diff <(printf '%s\n' "$readme_examples") \
       <(printf '%s\n' "$built_examples") | sed -n 's/^[<>] /  &/p'
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs.sh: FAILED"
  exit 1
fi
echo "check_docs.sh: OK (links, subcommands, flags, paths, examples)"
