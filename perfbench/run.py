#!/usr/bin/env python3
"""Build and run jcache's benchmark.

    python3 perfbench/run.py --workload paper|sweep|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a jcache checkout.  The first run configures and
builds the library, jcached and the perfbench program under
.bench_build/perfbench (later runs only check that the build is
current); then perfbench runs the workload and prints its JSON result
as the last line of stdout.  Build output goes to stderr.  The exit code
is perfbench's: non-zero when the build fails, a correctness gate
fails, or the run exceeds its time limit.

    python3 perfbench/run.py --test        # the benchmark's own unit tests
    python3 perfbench/run.py --capacity --seed N --seconds S
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
# Longest a run may take before it and every process it started are killed.
RUN_TIMEOUT_S = 170


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
               "--target"] + targets
        return subprocess.call(cmd, stdout=sys.stderr) == 0


def run(cmd):
    """Run perfbench in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


def main(argv):
    if argv == ["--test"]:
        if not build(["perfbench_tests"]):
            return 1
        return subprocess.call([os.path.join(BUILD, "perfbench_tests")])
    if not build(["perfbench", "jcached"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"),
           "--jcached", os.path.join(BUILD, "tools", "jcached"),
           "--manifest", os.path.join(HERE, "manifest", "paper.txt"),
           "--work-dir", os.path.join(BUILD_ROOT, "work"),
           "--trace-dir", os.path.join(BUILD_ROOT, "traces")] + argv
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
