#!/bin/sh
# Local CI gate: static analysis first (billcap-audit + clang-tidy — the
# cheapest stage fails fastest), then the tier-1 suite, then the
# robustness suite again under AddressSanitizer + UBSan (fault paths,
# crash/resume and the journal I/O are exactly the code most likely to
# hide lifetime or conversion bugs that only a sanitizer sees), then the
# race-labeled concurrency suites under ThreadSanitizer.
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build-ci)
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

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

echo "== tier 1: full suite, default toolchain =="
cmake --build "$ROOT/$PREFIX" -j "$JOBS"
ctest --test-dir "$ROOT/$PREFIX" --output-on-failure -j "$JOBS"

echo "== bench: solver engine comparison (BENCH_solver.json) =="
# The custom main in tab_solver_time times the month-long engine
# comparison (legacy reference vs arena, verifying equal objectives, min
# and median over repetitions) and writes BENCH_solver.json;
# the empty filter skips the google-benchmark micro benches. The JSON is
# archived at the repo root so DESIGN.md/README numbers stay auditable.
cmake --build "$ROOT/$PREFIX" -j "$JOBS" --target tab_solver_time
(cd "$ROOT/$PREFIX/bench" && ./tab_solver_time --benchmark_filter='^$')
cp "$ROOT/$PREFIX/bench/BENCH_solver.json" "$ROOT/BENCH_solver.json"

echo "== bench: fleet scale-out sweep (BENCH_fleet.json) =="
# A bounded slice of the fleet sweep: 24 scenario-months over the
# 100-site / 20-region fleet, serial vs threaded, under the rotating
# fault ladder. Exits nonzero on any fleet-hour abort or serial/threaded
# digest mismatch, so the determinism contract is gated here, not just in
# ctest. The full 1000-month sweep is a manual run (`./fleet_sweep`); the
# JSON records shape + host_cores so archived numbers stay comparable.
cmake --build "$ROOT/$PREFIX" -j "$JOBS" --target fleet_sweep
(cd "$ROOT/$PREFIX/bench" && ./fleet_sweep --months 24)
cp "$ROOT/$PREFIX/bench/BENCH_fleet.json" "$ROOT/BENCH_fleet.json"

echo "== bench: closed-loop market coupler envelope (BENCH_market.json) =="
# The coupler safety contract on the corner configurations: the
# destabilizing gain must oscillate, open the divergence breaker and
# still keep premium QoS; the damped paper gain must converge closed-loop
# on every hour of the month, bitwise deterministically. Exits nonzero on
# any broken gate. The full gain x damping grid is a manual run
# (`./market_loop`).
cmake --build "$ROOT/$PREFIX" -j "$JOBS" --target market_loop
(cd "$ROOT/$PREFIX/bench" && ./market_loop --smoke)
cp "$ROOT/$PREFIX/bench/BENCH_market.json" "$ROOT/BENCH_market.json"

echo "== tier 2: robustness label under address,undefined sanitizers =="
# Includes solver_test (the arena-vs-legacy differential harness and the
# basis/arena property tests), which carries the robustness label so the
# branch-and-bound node warm starts run under ASan + UBSan here.
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

echo "== tier 3: serve-daemon chaos soak (<= 30 s) =="
# The soak drives the serving daemon through a compound chaos scenario
# (flash crowd + feed burst + feed outage + site outage + kill-storm) and
# asserts the overload contract end to end. It reuses the tier-1 build.
ctest --test-dir "$ROOT/$PREFIX" -L soak --output-on-failure -j "$JOBS"

echo "ci: all suites passed"
