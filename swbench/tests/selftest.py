#!/usr/bin/env python3
"""Self-test of the swbench benchmark, in short mode (about two minutes).

    python3 swbench/tests/selftest.py [workload ...]

For each workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, reports correct, no failures and ok_frac 1;
  * a traced run prints every per-layer metric with its unit, and its
    phases plus the printed unattributed residual add up to the wall time;
  * a negative control (deliberately wrong expected outputs) fails;
and that run.py refuses, without a result line, in a directory that holds
only BENCHMARK.json and the benchmark's files.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SHORT_SECONDS = {"llg_maj": 1, "serve_sweep": 2}

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT, script=None):
    cmd = ["python3", script or os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", str(SHORT_SECONDS[workload]), "--trace", str(trace),
           "--short", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, lines, result, p.stderr


def metrics_match(result, specs, what):
    got = result["metrics"]
    for m in specs:
        check(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
              f"{what}: prints {m['name']} [{m['unit']}]")


def phases_add_up(lines, what):
    start = next((i for i, l in enumerate(lines) if l.startswith("phases (")),
                 None)
    check(start is not None, f"{what}: prints a phase breakdown")
    if start is None:
        return
    wall = float(re.search(r"wall ([-0-9.e]+)", lines[start]).group(1))
    parts, total, residual = 0.0, None, None
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        tokens = line.split()
        if tokens[0] == "sum":
            total = float(tokens[1])
            break
        name, value = " ".join(tokens[:-2]), float(tokens[-2])
        if name == "unattributed":
            residual = value
        else:
            parts += value
    check(residual is not None, f"{what}: prints the unattributed residual")
    if residual is None or total is None:
        return
    tol = 1e-5 * max(1.0, wall)
    check(abs(parts + residual - wall) <= tol and abs(total - wall) <= tol,
          f"{what}: phases {parts:.6f} + unattributed {residual:.6f} = "
          f"wall {wall:.6f}")


def test_workload(workload):
    rc, lines, result, err = run(workload, 0)
    check(rc == 0 and result is not None,
          f"{workload}: untraced run exits 0 with a result line")
    if result:
        check(result["correct"] and result["failed"] == 0 and
              result["attempted"] >= 1, f"{workload}: correct, no failures")
        metrics_match(result, SPEC["end_to_end"], workload)
        check(result["metrics"].get("ok_frac", {}).get("value") == 1,
              f"{workload}: ok_frac is 1")

    rc, lines, result, err = run(workload, 1)
    check(rc == 0 and result is not None,
          f"{workload}: traced run exits 0 with a result line")
    if result:
        metrics_match(result, SPEC["per_layer"], workload + " traced")
    phases_add_up(lines, workload + " traced")

    rc, lines, result, err = run(workload, 0, "--negative-control")
    check(rc != 0 and result is not None and not result["correct"] and
          result["failed"] >= 1,
          f"{workload}: negative control fails (rc {rc})")


def test_bare_directory():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = os.path.join(ROOT, target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "swbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, lines, result, err = run("serve_sweep", 0, cwd=bare,
                                 script=os.path.join(bare, "swbench",
                                                     "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and result is None,
          f"bare directory: refuses without a result line (rc {rc})")


def main():
    workloads = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    test_bare_directory()
    for w in workloads:
        test_workload(w)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
