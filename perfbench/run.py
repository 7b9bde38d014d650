#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the `effbench` program from source (Release) under
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload and
passes its output through: the last line of stdout is the JSON result.
Build logs and run notes go to stderr. Traced runs (`--trace 1`) also
write a Chrome trace and a per-layer JSON file under
`<build dir>/perfbench/work/`.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold-compile", "service-sweep", "ckks-keyswitch")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_step(cmd):
    """Runs one build command in its own process group, so that a
    timeout or a SIGTERM to this script kills the compilers it spawned
    too, not just cmake. Returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)

    def kill_group(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("build interrupted")

    previous = signal.signal(signal.SIGTERM, kill_group)
    try:
        return proc.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
    finally:
        signal.signal(signal.SIGTERM, previous)


def build(root, build_dir):
    """Configures once, then (re)builds `effbench`; logs go to stderr."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail(f"no library sources next to the benchmark under {root}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"),
               "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if build_step(cmd) != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "effbench", "-j", jobs]
    if build_step(cmd) != 0:
        fail("build failed")


def commit_of(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    try:
        build(root, build_dir)
    except OSError as err:
        fail(f"build failed: {err}")

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    # Relative to the checkout root (the run's cwd): the daemon socket
    # lives here, and AF_UNIX paths are limited to ~107 bytes.
    work_dir = os.path.relpath(work_dir, root)
    env = dict(os.environ, EFFBENCH_COMMIT=commit_of(root))
    cmd = [os.path.join(build_dir, "effbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        # subprocess.run kills and reaps the child on timeout; effbench
        # starts threads only, no processes.
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
