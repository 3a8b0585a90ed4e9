#!/bin/sh
# The diff step of tools/reachability.sh on fabricated listings: a clean
# listing passes; a new unreachable symbol, a stale baseline line and a
# baseline line without a reason each fail and name what is wrong.
#
# Usage: tests/lint/reachability_test.sh <path to tools/reachability.sh>
set -u

SCRIPT="${1:?usage: reachability_test.sh <path to tools/reachability.sh>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
FAILED=0

# check <want-exit> <name> <text the output must hold, or ""> <libs> <bins> <baseline>
check() {
  want="$1"
  name="$2"
  needle="$3"
  shift 3
  if sh "$SCRIPT" --diff "$@" >"$TMP/out" 2>&1; then got=0; else got=1; fi
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $name: exit $got, want $want"
    sed 's/^/  | /' "$TMP/out"
    FAILED=1
  elif [ -n "$needle" ] && ! grep -qF "$needle" "$TMP/out"; then
    echo "FAIL: $name: output does not name '$needle'"
    sed 's/^/  | /' "$TMP/out"
    FAILED=1
  else
    echo "ok: $name"
  fi
}

SPAN='std::span<double const, 18446744073709551615ul>'
printf '%s\n' 'billcap::core::decide(double)' 'billcap::util::mean('"$SPAN"')' \
  'billcap::util::unused() const' >"$TMP/libs"
printf '%s\n' 'billcap::core::decide(double)' 'billcap::bench::main_loop()' \
  >"$TMP/bins"
cat >"$TMP/baseline" <<BASELINE
# comment lines and blank lines are ignored

billcap::util::mean($SPAN) # only its own tests call it
billcap::util::unused() const # kept for a reason
BASELINE

check 0 "clean listing passes" "none unreachable beyond it" \
  "$TMP/libs" "$TMP/bins" "$TMP/baseline"

cp "$TMP/libs" "$TMP/libs_new"
echo 'billcap::lp::fresh_dead(int)' >>"$TMP/libs_new"
check 1 "new unreachable symbol fails" "billcap::lp::fresh_dead(int)" \
  "$TMP/libs_new" "$TMP/bins" "$TMP/baseline"

cp "$TMP/bins" "$TMP/bins_live"
echo 'billcap::util::unused() const' >>"$TMP/bins_live"
check 1 "stale baseline line fails" "billcap::util::unused() const" \
  "$TMP/libs" "$TMP/bins_live" "$TMP/baseline"

grep -v 'unused' "$TMP/libs" >"$TMP/libs_gone"
check 1 "baseline line for a deleted symbol fails" \
  "billcap::util::unused() const" \
  "$TMP/libs_gone" "$TMP/bins" "$TMP/baseline"

sed 's/ # kept for a reason//' "$TMP/baseline" >"$TMP/baseline_bare"
check 1 "baseline line without a reason fails" "without a '# reason'" \
  "$TMP/libs" "$TMP/bins" "$TMP/baseline_bare"

: >"$TMP/empty"
check 0 "empty baseline, everything linked, passes" "" \
  "$TMP/bins" "$TMP/bins" "$TMP/empty"

exit "$FAILED"
