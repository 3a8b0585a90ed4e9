#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--out perfbench/STEADINESS.md]

Runs perfbench/run.py once per seed, seeds 1..10, on each workload of
BENCHMARK.json, and reports for every end-to-end metric of BENCHMARK.json the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound. A spread below a third of
the bound is the target; setup_s has no spread gate, only its median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr}")
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    return json.loads(lines[-1]), meta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the record as markdown here")
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    report = []
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in metrics}
        meta = {}
        started = time.time()
        for i in range(RUNS):
            result, meta = run_once(workload, i + 1, bench["run_seconds"])
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        wall = time.time() - started
        report.append(f"\n### {workload}\n")
        report.append(f"{RUNS} runs, seeds 1..{RUNS}, "
                      f"{wall / RUNS:.1f} s per run; host nproc {meta.get('nproc')}, "
                      f"{meta.get('build_type')}, {meta.get('compiler')}, "
                      f"checkpoints on {meta.get('checkpoint_fs')}, "
                      f"{meta.get('repetitions')} repetitions of {meta.get('steps_per_repetition')} steps.\n")
        report.append("| metric | unit | median | q1 | q3 | spread | bound | spread < bound/3 |")
        report.append("|---|---|---|---|---|---|---|---|")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            gated = m["name"] != "setup_s"
            ok = spread < m["bound"] / 3 if gated else True
            all_ok = all_ok and ok
            report.append(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                          f"{spread:.4f} | {m['bound']} | {('yes' if ok else 'NO') if gated else 'not gated'} |")
        print("\n".join(report[-(len(metrics) + 4):]), flush=True)
    if args.out:
        header = ("# Steadiness record\n\n"
                  "Written by `python3 perfbench/steadiness.py "
                  f"--out {os.path.relpath(args.out, ROOT)}`: one run per seed with "
                  f"`--seconds {bench['run_seconds']}`, each a fixed number of repetitions. Spread is (q3 - q1) / median with the "
                  "quartiles of `statistics.quantiles(values, n=4)`; the target is a "
                  "spread below a third of the metric's bound. `setup_s` is gated on "
                  "its median only.\n")
        with open(args.out, "w") as f:
            f.write(header + "\n".join(report) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
