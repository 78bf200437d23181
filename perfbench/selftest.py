#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py with --tiny
and checks that:
  * the untraced run prints every end-to-end metric and the traced run
    every per-layer metric, each with the unit BENCHMARK.json gives it;
  * every clustering is valid (failed == 0, error_rate == 0);
  * a deliberately corrupted label vector (--corrupt) counts as a failure.
It also checks that the benchmark refuses to run, without printing a
result, from a directory that holds only BENCHMARK.json and perfbench/.
Exits non-zero on the first violated check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(cond, message):
    if not cond:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def parse(done, what):
    check(done.returncode == 0,
          f"{what} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    lines = done.stdout.splitlines()
    check(len(lines) >= 2, f"{what} printed no report and result")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    check(set(result) == RESULT_KEYS, f"{what} result keys {sorted(result)}")
    return result, report


def check_metrics(result, expected, what):
    got = result["metrics"]
    names = [m["name"] for m in expected]
    check(sorted(got) == sorted(names),
          f"{what} metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(names) - set(got))}, "
          f"extra {sorted(set(got) - set(names))}")
    for m in expected:
        value = got[m["name"]]
        check(value["unit"] == m["unit"],
              f"{what} {m['name']} unit {value['unit']} != {m['unit']}")
        check(isinstance(value["value"], (int, float)),
              f"{what} {m['name']} is not a number")


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        result, report = parse(run(name, 0), f"{name} untraced")
        check_metrics(result, SPEC["end_to_end"], f"{name} untraced")
        check(result["correct"] and result["failed"] == 0,
              f"{name}: {result['failed']} of {result['attempted']} "
              f"clusterings failed ({report.get('first_error')})")
        check(report["error_rate"] == 0, f"{name}: error_rate != 0")
        check(result["metrics"]["success_rate"]["value"] == 1,
              f"{name}: success_rate != 1")
        print(f"selftest: {name} untraced ok "
              f"({result['attempted']} clusterings)")

        result, report = parse(run(name, 1), f"{name} traced")
        check_metrics(result, SPEC["per_layer"], f"{name} traced")
        check(result["correct"] and result["failed"] == 0,
              f"{name} traced: {result['failed']} clusterings failed")
        print(f"selftest: {name} traced ok "
              f"({len(report.get('absent', {}))} metrics absent with reason)")

        result, _ = parse(run(name, 0, "--corrupt"), f"{name} corrupted")
        check(not result["correct"] and result["failed"] >= 1,
              f"{name}: a corrupted label vector was not counted as failed")
        check(result["metrics"]["success_rate"]["value"] < 1,
              f"{name}: success_rate ignores the corrupted clustering")
        print(f"selftest: {name} corrupted clustering counted as failed")

    # Only BENCHMARK.json and the benchmark's own files: must refuse.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    done = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "ran without the program's sources")
    check(not done.stdout.strip().endswith("}"),
          "printed a result without the program's sources")
    print("selftest: refuses to run without the program's sources")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
