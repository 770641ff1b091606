#!/usr/bin/env python3
"""Build the swbench binary from this checkout, then run one workload.

    python3 swbench/run.py --workload llg_maj --seed 1 --seconds 40 --trace 0

Workloads: llg_maj, serve_sweep. The binary prints diagnostics
and, as the last line of standard output, one JSON result object. Build
output goes to standard error. The build lives in $CARGO_TARGET_DIR
(default .bench_build) under the checkout root; see swbench/README.md.
"""
import argparse
import ctypes
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("llg_maj", "serve_sweep")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
LIBC = ctypes.CDLL(None, use_errno=True)


def fixed_layout():
    """Runs in the child before exec: turn off address-space randomization.
    With it on, each process draws a memory layout, and serve throughput
    moved ~15% between layouts; a fixed layout repeats."""
    current = LIBC.personality(0xFFFFFFFF)
    if current != -1:
        LIBC.personality(current | ADDR_NO_RANDOMIZE)


def fail(message, code=2):
    print(f"swbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of the sources the binary is built from (the checkout may
    not be a git repository, so the configure-time git sha can be
    'unknown')."""
    files = []
    for top in ("CMakeLists.txt", "src", "cli", "swbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for d, dirs, names in os.walk(path):
            dirs[:] = [x for x in dirs if x != "__pycache__"]
            files.extend(os.path.join(d, n) for n in names)
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(build_dir, "CMakeCache.txt")
        if os.path.exists(cache):
            with open(cache) as fh:
                home = [l for l in fh if l.startswith("CMAKE_HOME_DIRECTORY:")]
            if not home or home[0].split("=", 1)[1].strip() != HERE:
                # A build configured for another checkout: start over.
                for entry in os.listdir(build_dir):
                    if entry != ".lock":
                        p = os.path.join(build_dir, entry)
                        shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps = []
        if not os.path.exists(cache):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "swbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(build_dir, "swbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--short", action="store_true",
                    help="self-test mode: one set-up, short warm-ups")
    ap.add_argument("--negative-control", action="store_true",
                    help="perturb the expected outputs; the run must fail")
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "serve", "server.h"),
                   os.path.join("src", "mag", "simulation.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no swsim sources here ({needed} is missing); run from a "
                 "checkout of the repository")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "swbench")
    binary = build(build_dir)
    work = os.path.join(build_dir, "run")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected", "llg_maj.digests"),
           "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            work, f"trace-{args.workload}-{args.seed}.json")]
    if args.short:
        cmd.append("--short")
    if args.negative_control:
        cmd.append("--negative-control")
    sys.stdout.flush()
    # The binary's working directory holds its Unix socket (a short,
    # relative path) and trace files.
    proc = subprocess.Popen(cmd, cwd=work, preexec_fn=fixed_layout)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
