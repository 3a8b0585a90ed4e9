#!/usr/bin/env python3
"""Builds and runs the billcap month-scale benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first run configures and builds the
library and the benchmark programs into .bench_build/ (about half a minute
on 4 cores); later runs only check the build is current. --trace 0 runs the
untraced program and reports the end-to-end metrics; --trace 1 runs the
build linked with -Wl,--wrap around each layer's entry points and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ["durable_month", "closed_month", "fleet_month", "serve_month"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures on first use, then brings the build up to date. The
    compiler's temporary files stay inside the build tree too."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def source_revision():
    """The git commit when the tree is a git checkout, else a digest of src/."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources at {os.path.join(ROOT, 'src')}; run from a billcap source tree")
        return 2
    try:
        build()
        subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=True,
                       stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build or self-test failed: {e}")
        return 1

    program = "perfbench_traced" if args.trace else "perfbench"
    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [os.path.join(BUILD, program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--work-dir", work_dir, "--rev", source_revision()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines or not lines[-1].startswith('{"correct"'):
        log(f"{program} exited with {run.returncode} and no result")
        return 1
    print("\n".join(lines), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
