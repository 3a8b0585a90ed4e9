#!/bin/sh
# Reachability ratchet: src/ holds only what a shipped binary links, and
# what only the paper-figure programs link is listed by name.
#
# Builds the product set at -O0 with one section per function and
# -Wl,--gc-sections, lists the billcap:: text symbols the src/ libraries
# define, and runs two checks:
#
#   1. A src/ symbol that no product binary keeps fails, unless
#      tools/reachability_baseline.txt lists it.
#   2. A src/ symbol that some bench/ or examples/ program keeps but
#      billcap, perfbench and perfbench_traced do not fails, unless
#      tools/reachability_bench_baseline.txt lists it. Each line of that
#      list must name a program that keeps the symbol.
#
# Either check also fails on a baseline line whose symbol no longer falls
# in its class (or is gone), so both lists can only shrink.
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
#       builds <prefix>-reach and <prefix>-reach-perf and runs both checks
#   sh tools/reachability.sh --diff <lib-symbols> <bin-symbols> <baseline>
#       check 1 alone, on prepared listings (one demangled symbol per
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

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# check <libs> <bins> <baseline> [<class>]: fails on a <libs> symbol that
# <bins> lacks and <baseline> does not list, and on a <baseline> line
# whose symbol is not such a symbol. <class> names such symbols in the
# messages (default: unreachable).
check() {
  LIBS="$1"
  BINS="$2"
  BASELINE="$3"
  CLASS="${4:-unreachable}"
  NAME="$(basename "$BASELINE")"
  LC_ALL=C sort -u "$LIBS" >"$TMP/libs"
  LC_ALL=C sort -u "$BINS" >"$TMP/bins"
  LC_ALL=C comm -23 "$TMP/libs" "$TMP/bins" >"$TMP/dead"
  baseline_symbols "$BASELINE" >"$TMP/listed"
  STATUS=0

  UNREASONED="$(grep -v '^[[:space:]]*\(#\|$\)' "$BASELINE" |
    grep -v '[[:space:]]# [^[:space:]]' || true)"
  if [ -n "$UNREASONED" ]; then
    echo "reachability: $NAME lines without a '# reason':" >&2
    printf '%s\n' "$UNREASONED" | sed 's/^/  /' >&2
    STATUS=1
  fi
  LC_ALL=C comm -23 "$TMP/dead" "$TMP/listed" >"$TMP/new"
  if [ -s "$TMP/new" ]; then
    echo "reachability: $CLASS src/ symbols that $NAME does not list" \
         "(delete them, move them to the code that uses them, or list" \
         "them there with a reason):" >&2
    sed 's/^/  /' "$TMP/new" >&2
    STATUS=1
  fi
  LC_ALL=C comm -13 "$TMP/dead" "$TMP/listed" >"$TMP/stale"
  if [ -s "$TMP/stale" ]; then
    echo "reachability: $NAME lines whose symbol is no longer $CLASS" \
         "(remove them; the baseline only shrinks):" >&2
    sed 's/^/  /' "$TMP/stale" >&2
    STATUS=1
  fi
  if [ "$STATUS" -eq 0 ]; then
    echo "reachability: $(wc -l <"$TMP/libs") src/ symbols," \
         "$(wc -l <"$TMP/listed") listed in $NAME, none $CLASS beyond it"
  fi
  return "$STATUS"
}

# check_keepers <baseline> <listing-dir>: fails on a <baseline> line whose
# reason names no program that keeps its symbol. <listing-dir> holds one
# <program>.txt symbol listing per program.
check_keepers() {
  grep -v '^[[:space:]]*\(#\|$\)' "$1" >"$TMP/lines" || true
  : >"$TMP/unnamed"
  while IFS= read -r LINE; do
    SYMBOL="$(printf '%s\n' "$LINE" | sed 's/[[:space:]]\{1,\}# .*$//')"
    REASON="${LINE#"$SYMBOL"}"
    NAMED=""
    for LISTING in "$2"/*.txt; do
      PROGRAM="$(basename "$LISTING" .txt)"
      case "$REASON" in *"$PROGRAM"*) ;; *) continue ;; esac
      if grep -Fxq -- "$SYMBOL" "$LISTING"; then NAMED=1; break; fi
    done
    [ -n "$NAMED" ] || printf '  %s\n' "$SYMBOL" >>"$TMP/unnamed"
  done <"$TMP/lines"
  if [ -s "$TMP/unnamed" ]; then
    echo "reachability: $(basename "$1") lines whose reason names no" \
         "program that keeps the symbol:" >&2
    cat "$TMP/unnamed" >&2
    return 1
  fi
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
rm -rf "$LISTS"
mkdir -p "$LISTS/programs"
# shellcheck disable=SC2046 # the file lists are generated paths
text_symbols $(find "$MAIN/src" -name 'libbillcap_*.a' | sort) \
  >"$LISTS/lib_symbols.txt"
if [ ! -s "$LISTS/lib_symbols.txt" ]; then
  echo "reachability: no billcap:: symbols in the libraries under $MAIN/src" >&2
  exit 1
fi
# One listing per program: the product binaries, then the bench/ and
# examples/ programs.
text_symbols "$MAIN/tools/billcap" >"$LISTS/product_symbols.txt"
text_symbols "$PERF/perfbench" "$PERF/perfbench_traced" \
  >>"$LISTS/product_symbols.txt"
for PROGRAM in $(find "$MAIN/bench" "$MAIN/examples" -maxdepth 1 -type f \
                   -perm -u+x | sort); do
  text_symbols "$PROGRAM" >"$LISTS/programs/$(basename "$PROGRAM").txt"
done
cat "$LISTS/product_symbols.txt" "$LISTS/programs/"*.txt \
  >"$LISTS/bin_symbols.txt"
LC_ALL=C sort -u "$LISTS/lib_symbols.txt" >"$TMP/libs_sorted"
LC_ALL=C sort -u "$LISTS/bin_symbols.txt" | LC_ALL=C comm -12 \
  "$TMP/libs_sorted" - >"$LISTS/kept_symbols.txt"

STATUS=0
check "$LISTS/lib_symbols.txt" "$LISTS/bin_symbols.txt" \
  "$ROOT/tools/reachability_baseline.txt" || STATUS=1
check "$LISTS/kept_symbols.txt" "$LISTS/product_symbols.txt" \
  "$ROOT/tools/reachability_bench_baseline.txt" "bench-only" || STATUS=1
check_keepers "$ROOT/tools/reachability_bench_baseline.txt" \
  "$LISTS/programs" || STATUS=1
exit "$STATUS"
