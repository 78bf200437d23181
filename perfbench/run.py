#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run a workload.

    python3 perfbench/run.py --workload eps_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the program from src/) into .bench_build/; later
runs rebuild only what changed. The driver's standard output is passed
through; its last line is the JSON result. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("eps_sweep", "minpts_reuse", "service_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def run_step(cmd, env):
    """Runs one build step; its output goes to stderr."""
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
    return done.returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}; "
             "run from the root of a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compilers write temporaries under TMPDIR: keep them in the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    cfg = BUILD / "cmake"
    configure = [cmake, "-S", str(HERE), "-B", str(cfg),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (cfg / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    if not run_step(configure, env):
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(cfg, ignore_errors=True)
        if not run_step(configure, env):
            fail("configure failed")
    if not run_step([cmake, "--build", str(cfg), "--target", "perfbench",
                     "-j", str(cpus())], env):
        fail("build failed")
    return cfg / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale (small inputs)")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one recorded clustering")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}", flush=True)
        run_workload(binary, workload, args)


def run_workload(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or \
            not lines[-1].startswith('{"correct"'):
        sys.stderr.write(done.stdout)
        fail(f"{workload} failed (exit code {done.returncode})")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
