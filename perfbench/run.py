#!/usr/bin/env python3
"""Entry point of the campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. On first use it builds perfbench/ (which
compiles the repository's libraries from src/) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, then runs the campaign_bench program
and relays its output. The last line printed is the JSON result:
{"correct", "attempted", "failed", "metrics"}.

At the default seed recorded in golden.json the campaign digest must also
equal the recorded golden digest; the held-out seed is the one reserved
for confirming a claimed gain on inputs it was not tuned on.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources at %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, False)
        if code != 0:
            die("cmake configure failed")
    code, _ = run(["cmake", "--build", build_dir, "-j",
                   str(os.cpu_count() or 1)], BUILD_TIMEOUT_S, False)
    if code != 0:
        die("build failed")
    return os.path.join(build_dir, "campaign_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    binary = build(os.path.join(out_root, "perfbench"))

    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    workdir = os.path.join(out_root, "work", "%s-%d" % (args.workload,
                                                         os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--held-out-seed", str(golden["held_out_seed"])]
    digest = golden["digests"].get(args.workload)
    if args.seed == golden["default_seed"] and digest:
        cmd += ["--golden", digest]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        sys.stderr.write(out)
        die("campaign_bench exited %d without a result" % code)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
