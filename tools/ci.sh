#!/bin/sh
# Local CI gate: static analysis first (billcap-audit + clang-tidy — the
# cheapest stage fails fastest), then the reachability ratchet (src/ holds
# only what a shipped binary links), then a check that the simplex pivot's
# row kernel still vectorizes, then the tier-1 suite, then the
# robustness suite again under AddressSanitizer + UBSan (fault paths,
# crash/resume and the journal I/O are exactly the code most likely to
# hide lifetime or conversion bugs that only a sanitizer sees), then the
# race-labeled concurrency suites under ThreadSanitizer, then the pinned
# set again in a tree built for x86-64-v3 (AVX2 and FMA). The bench stages
# check their gates in the build tree and leave the archived BENCH_*.json
# files alone; a traced perfbench durable_month run gates the one-fsync
# batch commit.
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build-ci)
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Pinned outputs. A change that moves any of these bits re-baselines the
# line and says why in CHANGES.md. The fleet digest covers a 24-month
# slice of the fleet sweep; the three market digests are the
# market_loop --smoke configurations, whose every closed-loop hour runs
# the DC-OPF through lp::solve_lp. The tests named by PINNED_TESTS pin
# digests, effort counts and tie-breaking cases of their own.
FLEET_DIGEST=af7c785ea0d967ee
MARKET_DIGESTS="5cdc9a7a691dd031 6df382effbd691b8 e5beea67bde25056"
PINNED_TESTS='DigestsArePinned|DigestIsPinned|RecordedReference|SolverIsFastEnoughForOnlineUse|LocalCurveTest[.]'

# check_digests <build-dir>: runs the fleet slice and the market smoke in
# <build-dir>/bench and fails unless each prints its pinned digest.
check_digests() {
  (cd "$1/bench" && ./fleet_sweep --months 24)
  if ! grep -q "\"digest\": \"$FLEET_DIGEST\"" "$1/bench/BENCH_fleet.json"; then
    echo "ci: $1: fleet_sweep --months 24 digest is not $FLEET_DIGEST" >&2
    exit 1
  fi
  (cd "$1/bench" && ./market_loop --smoke)
  for MARKET_DIGEST in $MARKET_DIGESTS; do
    if ! grep -q "\"digest\": \"$MARKET_DIGEST\"" \
        "$1/bench/BENCH_market.json"; then
      echo "ci: $1: market_loop --smoke has no config with digest" \
        "$MARKET_DIGEST" >&2
      exit 1
    fi
  done
}

echo "== stage 0: static analysis (billcap-audit + clang-tidy) =="
cmake -B "$ROOT/$PREFIX" -S "$ROOT" >/dev/null
cmake --build "$ROOT/$PREFIX" -j "$JOBS" --target billcap-audit
# --summary prints the per-rule table; a nonzero exit means unsuppressed
# findings, and the gate stops before any test tier runs. Paths are
# relative (run from the repo root) so the archived JSON and any baseline
# keys stay machine-independent.
(cd "$ROOT" && "$ROOT/$PREFIX/tools/lint/billcap-audit" --summary \
  --json "$ROOT/$PREFIX/audit.json" src tools bench examples)
sh "$ROOT/tools/run_clang_tidy.sh" "$ROOT/$PREFIX"

echo "== stage 0b: reachability ratchet (src/ holds only what ships) =="
# Builds the product set (billcap, bench/, examples/, perfbench) at -O0
# with -ffunction-sections and -Wl,--gc-sections in <prefix>-reach and
# <prefix>-reach-perf, and fails on any billcap:: symbol of the src/
# libraries that no product binary links and tools/reachability_baseline.txt
# does not list, or on a baseline line that is reachable again or gone.
# A second list, tools/reachability_bench_baseline.txt, must name every
# src/ symbol that only bench/ or examples/ programs link (not billcap or
# perfbench), each with a program that keeps it.
sh "$ROOT/tools/reachability.sh" "$PREFIX"

echo "== stage 0c: the pivot's row kernel stays vectorized =="
# ArenaSolver's row_sub_scaled (src/lp/arena_solver.cpp) carries most of a
# fleet month. GCC vectorizes it at the default -O2 cost model only while
# its rows are restrict-qualified parameters and its trip count is a known
# multiple of two; an edit that loses either still compiles and silently
# runs scalar. Recompile the file with the build's own flags plus GCC's
# -fopt-info-vec-optimized and fail unless the kernel's loop line is
# reported vectorized.
python3 - "$ROOT/$PREFIX/compile_commands.json" \
    "$ROOT/src/lp/arena_solver.cpp" "$ROOT/$PREFIX/vec_check.o" <<'PY'
import json, os, re, shlex, subprocess, sys
database, source, obj = sys.argv[1:4]
with open(source) as f:
    lines = [n for n, text in enumerate(f, 1) if "d[j] -= f * s[j];" in text]
if len(lines) != 1:
    sys.exit("ci: cannot find the row_sub_scaled loop line in " + source)
with open(database) as f:
    entry = next(e for e in json.load(f)
                 if os.path.realpath(e["file"]) == os.path.realpath(source))
args = entry.get("arguments") or shlex.split(entry["command"])
i = args.index("-o")
args = args[:i] + args[i + 2:] + ["-fopt-info-vec-optimized", "-o", obj]
out = subprocess.run(args, cwd=entry["directory"], capture_output=True,
                     text=True, check=True).stderr
if not re.search(r"arena_solver\.cpp:%d:\d+: optimized: loop vectorized"
                 % lines[0], out):
    sys.exit("ci: row_sub_scaled (arena_solver.cpp:%d) is no longer "
             "vectorized at the build's flags" % lines[0])
print("ci: row_sub_scaled loop (arena_solver.cpp:%d) is vectorized" % lines[0])
PY

echo "== tier 1: full suite, default toolchain =="
cmake --build "$ROOT/$PREFIX" -j "$JOBS"
ctest --test-dir "$ROOT/$PREFIX" --output-on-failure -j "$JOBS"

echo "== bench: solver engine comparison (gates only) =="
# The custom main in tab_solver_time times the month-long engine
# comparison (legacy reference vs arena, min and median over repetitions)
# and fails unless every objective agrees; the empty filter skips the
# google-benchmark micro benches. Its BENCH_solver.json stays in the build
# tree: the archive at the repo root, behind the DESIGN.md/README numbers,
# is regenerated by hand (README, "Solver performance"), so a CI run leaves the
# tree clean.
cmake --build "$ROOT/$PREFIX" -j "$JOBS" --target tab_solver_time
(cd "$ROOT/$PREFIX/bench" && ./tab_solver_time --benchmark_filter='^$')

echo "== bench: fleet slice and market envelope (gates only) =="
# A bounded slice of the fleet sweep: 24 scenario-months over the
# 100-site / 20-region fleet, serial vs threaded, under the rotating
# fault ladder. Exits nonzero on any fleet-hour abort or serial/threaded
# digest mismatch, so the determinism contract is gated here, not just in
# ctest. The full 1000-month sweep is a manual run (`./fleet_sweep`); the
# JSON records shape + host_cores so archived numbers stay comparable.
# Then the closed-loop market coupler envelope on the corner
# configurations: the destabilizing gain must oscillate, open the
# divergence breaker and still keep premium QoS; the damped paper gain
# must converge closed-loop on every hour of the month, bitwise
# deterministically. Exits nonzero on any broken gate. The full gain x
# damping grid is a manual run (`./market_loop`). Both digests must be
# the pinned ones above; the JSON files stay in the build tree.
cmake --build "$ROOT/$PREFIX" -j "$JOBS" --target fleet_sweep market_loop
check_digests "$ROOT/$PREFIX"

echo "== perf gate: one fsync per batch checkpoint commit =="
# The hourly batch commit is one state-log append and one fsync (DESIGN.md,
# "Durable checkpoint format"). A traced perfbench durable_month run
# counts fsyncs per commit: it must check out correct and stay at or below
# 1.05 (a month's first commit also creates the log and writes the head,
# three fsyncs more, once per month). perfbench builds into .bench_build/.
(cd "$ROOT" && python3 perfbench/run.py --workload durable_month \
  --seed 2012 --seconds 25 --trace 1) > "$ROOT/$PREFIX/perfbench_durable.txt"
python3 - "$ROOT/$PREFIX/perfbench_durable.txt" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    result = json.loads(f.read().strip().splitlines()[-1])
fsyncs = result["metrics"]["checkpoint.fsyncs_per_commit"]["value"]
if not result["correct"]:
    sys.exit("ci: perfbench durable_month reported incorrect output")
if fsyncs > 1.05:
    sys.exit("ci: durable_month commits take %.3f fsyncs each (gate 1.05)"
             % fsyncs)
print("ci: durable_month correct, %.3f fsyncs per commit" % fsyncs)
PY

echo "== tier 2: robustness label under address,undefined sanitizers =="
# Includes solver_test (the arena-vs-legacy differential harness and the
# basis/arena property tests), which carries the robustness label so the
# branch-and-bound node warm starts run under ASan + UBSan here, and
# parser_test (the journal, state-log and CSV readers a resume runs, with
# their seeded mutation corpora).
cmake -B "$ROOT/$PREFIX-asan" -S "$ROOT" \
  -DBILLCAP_SANITIZE=address,undefined >/dev/null
cmake --build "$ROOT/$PREFIX-asan" -j "$JOBS"
ctest --test-dir "$ROOT/$PREFIX-asan" -L robustness --output-on-failure \
  -j "$JOBS"

echo "== tier 2b: race label under ThreadSanitizer =="
# The genuinely concurrent suites (thread pool, fleet shard-invariance,
# serve daemon) in a third build tree under TSan. ASan and TSan cannot
# share a build; only the race-labeled targets are built so the stage
# stays cheap. tools/tsan.supp must stay free of project frames — see the
# header comment there.
cmake -B "$ROOT/$PREFIX-tsan" -S "$ROOT" \
  -DBILLCAP_SANITIZE=thread >/dev/null
cmake --build "$ROOT/$PREFIX-tsan" -j "$JOBS" \
  --target thread_pool_test fleet_test serve_test
TSAN_OPTIONS="suppressions=$ROOT/tools/tsan.supp" \
  ctest --test-dir "$ROOT/$PREFIX-tsan" -L race --output-on-failure \
  -j "$JOBS"

echo "== tier 2c: the pinned set at x86-64-v3 =="
# No target contracts a * b + c into one FMA (-ffp-contract=off, see
# DESIGN.md), so a tree built for a CPU level with AVX2 and FMA must give
# every pinned bit of the default tree: the same tests, fleet digest and
# market digests, checked against the same pins. The solver's own suites
# run there too: their bitwise checks (LP answers against the reference
# simplex, a long-lived arena against a fresh one) cover the bounded
# columns' flips and bound moves, arithmetic no pinned run isolates.
cmake -B "$ROOT/$PREFIX-v3" -S "$ROOT" \
  -DCMAKE_CXX_FLAGS=-march=x86-64-v3 >/dev/null
cmake --build "$ROOT/$PREFIX-v3" -j "$JOBS" --target billcap \
  integration_test robustness_test local_curve_test fleet_test serve_test \
  solver_test fleet_sweep market_loop
ctest --test-dir "$ROOT/$PREFIX-v3" -R "$PINNED_TESTS" --output-on-failure \
  -j "$JOBS"
ctest --test-dir "$ROOT/$PREFIX-v3" -R 'SolverDifferentialTest|ArenaSolverTest' \
  --output-on-failure -j "$JOBS"
check_digests "$ROOT/$PREFIX-v3"

echo "== tier 3: serve-daemon chaos soak (<= 30 s) =="
# The soak drives the serving daemon through a compound chaos scenario
# (flash crowd + feed burst + feed outage + site outage + kill-storm) and
# asserts the overload contract end to end. It reuses the tier-1 build.
ctest --test-dir "$ROOT/$PREFIX" -L soak --output-on-failure -j "$JOBS"

echo "ci: all suites passed"
