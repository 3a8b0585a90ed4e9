#!/bin/sh
# Reachability ratchet: src/ holds only what a shipped binary links.
#
# Builds the product set at -O0 with one section per function and
# -Wl,--gc-sections, lists the billcap:: text symbols the src/ libraries
# define, and fails on any that no product binary keeps, unless the
# baseline file names it. It also fails on a baseline line whose symbol is
# reachable again (or gone), so the baseline can only shrink.
#
# The product set is tools/billcap, every program in bench/ and examples/,
# and perfbench + perfbench_traced, configured from perfbench/ the way
# perfbench/run.py configures it. -O0, because at -O2 GCC inlines every
# call to a function used only inside its own file and the out-of-line
# copy is then unreferenced: such a diff reports live code as dead, and
# it changes whenever the inliner does. Header-only code (inline
# functions, templates nobody instantiates) defines no symbol in a
# library, so this diff cannot see it.
#
# Usage:
#   sh tools/reachability.sh [build-dir-prefix]   (default: build-ci)
#       builds <prefix>-reach and <prefix>-reach-perf and checks them
#       against tools/reachability_baseline.txt
#   sh tools/reachability.sh --diff <lib-symbols> <bin-symbols> <baseline>
#       the check alone, on prepared listings (one demangled symbol per
#       line; tests/lint/reachability_test.sh drives this)
#
# Baseline format: one `<demangled symbol> # <reason>` per line; blank
# lines and lines starting with '#' are comments.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# Prints the baseline's symbols, one per line (the text before " # ").
baseline_symbols() {
  grep -v '^[[:space:]]*\(#\|$\)' "$1" | sed 's/[[:space:]]\{1,\}# .*$//' |
    LC_ALL=C sort -u
}

check() {
  LIBS="$1"
  BINS="$2"
  BASELINE="$3"
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  LC_ALL=C sort -u "$LIBS" >"$TMP/libs"
  LC_ALL=C sort -u "$BINS" >"$TMP/bins"
  LC_ALL=C comm -23 "$TMP/libs" "$TMP/bins" >"$TMP/dead"
  baseline_symbols "$BASELINE" >"$TMP/listed"
  STATUS=0

  UNREASONED="$(grep -v '^[[:space:]]*\(#\|$\)' "$BASELINE" |
    grep -v '[[:space:]]# [^[:space:]]' || true)"
  if [ -n "$UNREASONED" ]; then
    echo "reachability: baseline lines without a '# reason':" >&2
    printf '%s\n' "$UNREASONED" | sed 's/^/  /' >&2
    STATUS=1
  fi
  LC_ALL=C comm -23 "$TMP/dead" "$TMP/listed" >"$TMP/new"
  if [ -s "$TMP/new" ]; then
    echo "reachability: src/ symbols no product binary links" \
         "(delete them, move them to the tests that use them, or list" \
         "them in the baseline with a reason):" >&2
    sed 's/^/  /' "$TMP/new" >&2
    STATUS=1
  fi
  LC_ALL=C comm -13 "$TMP/dead" "$TMP/listed" >"$TMP/stale"
  if [ -s "$TMP/stale" ]; then
    echo "reachability: baseline lines that are no longer unreachable" \
         "(remove them; the baseline only shrinks):" >&2
    sed 's/^/  /' "$TMP/stale" >&2
    STATUS=1
  fi
  if [ "$STATUS" -eq 0 ]; then
    echo "reachability: $(wc -l <"$TMP/libs") src/ symbols," \
         "$(wc -l <"$TMP/listed") listed in the baseline, none unreachable" \
         "beyond it"
  fi
  return "$STATUS"
}

# Demangled billcap:: text symbols (global, local and weak) of the files.
text_symbols() {
  nm -C --defined-only "$@" 2>/dev/null |
    sed -n 's/^[0-9a-fA-F]\{1,\} [TtWw] \(.*billcap::.*\)$/\1/p'
}

if [ "${1:-}" = "--diff" ]; then
  [ "$#" -eq 4 ] || { echo "usage: $0 --diff LIBS BINS BASELINE" >&2; exit 2; }
  check "$2" "$3" "$4"
  exit $?
fi

PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"
MAIN="$ROOT/$PREFIX-reach"
PERF="$ROOT/$PREFIX-reach-perf"
FLAGS="-O0 -ffunction-sections -fdata-sections"
GEN=""
if command -v ninja >/dev/null 2>&1; then GEN="-GNinja"; fi

# CMAKE_BUILD_TYPE=None adds no optimisation flag of its own.
cmake $GEN -S "$ROOT" -B "$MAIN" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  >/dev/null
if [ -n "$GEN" ]; then
  cmake --build "$MAIN" -j "$JOBS" --target billcap bench/all examples/all
else
  cmake --build "$MAIN" -j "$JOBS" --target billcap
  cmake --build "$MAIN/bench" -j "$JOBS"
  cmake --build "$MAIN/examples" -j "$JOBS"
fi
cmake $GEN -S "$ROOT/perfbench" -B "$PERF" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
  >/dev/null
cmake --build "$PERF" -j "$JOBS" --target perfbench perfbench_traced

LISTS="$MAIN/reachability"
mkdir -p "$LISTS"
# shellcheck disable=SC2046 # the file lists are generated paths
text_symbols $(find "$MAIN/src" -name 'libbillcap_*.a' | sort) \
  >"$LISTS/lib_symbols.txt"
if [ ! -s "$LISTS/lib_symbols.txt" ]; then
  echo "reachability: no billcap:: symbols in the libraries under $MAIN/src" >&2
  exit 1
fi
# shellcheck disable=SC2046
text_symbols "$MAIN/tools/billcap" \
  $(find "$MAIN/bench" "$MAIN/examples" -maxdepth 1 -type f -perm -u+x |
    sort) \
  "$PERF/perfbench" "$PERF/perfbench_traced" >"$LISTS/bin_symbols.txt"
check "$LISTS/lib_symbols.txt" "$LISTS/bin_symbols.txt" \
  "$ROOT/tools/reachability_baseline.txt"
