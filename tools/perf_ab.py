#!/usr/bin/env python3
"""Paired A/B of the campaign benchmark: a base revision vs the working tree.

    python3 tools/perf_ab.py --base REV --workload W [--pairs 10]
                             [--seconds 20] [--seed N] [--trace 0|1]

Run from the repository root. The base arm is REV's src/ and perfbench/,
exported with `git archive` into .bench_build/ab/<commit>; the change arm is
the working tree. Each arm builds through its own perfbench/run.py into its
own target directory, in an untimed warm-up run, before the pairs start. Each
pair then makes one timed run of each arm on the same workload and seed, and
the arm that goes first alternates from pair to pair, so host drift falls on
both arms alike.

For every metric the report gives each arm's median and quartiles, the
change/base ratio of the medians with the smallest and largest per-pair
ratio, and the number of pairs the change won, judged by the metric's
direction in BENCHMARK.json (ties count for neither arm). It also lists every
run's value of every metric. Exits 1 if any run is not `correct`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")


def die(message):
    print("perf_ab: " + message, file=sys.stderr)
    sys.exit(2)


def export_base(rev):
    """REV's src/ and perfbench/ under .bench_build/ab/<commit>."""
    probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                            rev + "^{commit}"], capture_output=True, text=True)
    if probe.returncode != 0:
        die("unknown revision %r" % rev)
    commit = probe.stdout.strip()
    dest = os.path.join(AB_DIR, commit[:12])
    if os.path.isfile(os.path.join(dest, "perfbench", "run.py")):
        return commit, dest
    partial = dest + ".partial"
    subprocess.run(["rm", "-rf", partial], check=True)
    os.makedirs(partial)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar",
                                commit, "src", "perfbench"],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(partial)
    if archive.wait() != 0:
        die("git archive of %s failed" % commit)
    os.rename(partial, dest)
    return commit, dest


class Arm:
    def __init__(self, name, root, target):
        self.name = name
        self.root = root
        self.target = target
        self.runs = []  # one metrics dict per timed run

    def run(self, args, seconds):
        """One run.py call; returns its result dict, or None on failure."""
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        cmd = [sys.executable, os.path.join(self.root, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=self.root, env=env,
                              capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if proc.returncode != 0 or not isinstance(result, dict):
            sys.stderr.write(proc.stderr[-4000:])
            print("perf_ab: %s arm exited %d without a result"
                  % (self.name, proc.returncode), file=sys.stderr)
            return None
        return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def directions():
    """metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench["per_layer"] + bench["end_to_end"]}


def report(base, change, better):
    names = []
    for metrics in base.runs + change.runs:
        names += [n for n in metrics if n not in names]

    print("\nevery run, in pair order (odd pairs ran base first):")
    for name in names:
        print("  %-26s base   %s" % (name, " ".join(
            fmt(r.get(name)) for r in base.runs)))
        print("  %-26s change %s" % ("", " ".join(
            fmt(r.get(name)) for r in change.runs)))

    print("\n%-28s %-34s %-34s %-24s %s" % (
        "metric", "base median [q1, q3]", "change median [q1, q3]",
        "change/base (min-max)", "won"))
    for name in names:
        pairs = [(b[name], c[name]) for b, c in zip(base.runs, change.runs)
                 if name in b and name in c]
        if not pairs:
            continue
        bv = [b for b, _ in pairs]
        cv = [c for _, c in pairs]
        bq, cq = quartiles(bv), quartiles(cv)
        ratios = [c / b for b, c in pairs if b != 0]
        ratio = ("%.3fx (%.3f-%.3f)" % (cq[1] / bq[1], min(ratios),
                                         max(ratios))
                 if ratios and bq[1] != 0 else "-")
        direction = better.get(name)
        if direction == "higher":
            won = "%d/%d" % (sum(c > b for b, c in pairs), len(pairs))
        elif direction == "lower":
            won = "%d/%d" % (sum(c < b for b, c in pairs), len(pairs))
        else:
            won = "-"
        print("%-28s %-34s %-34s %-24s %s" % (
            name, "%s [%s, %s]" % (fmt(bq[1]), fmt(bq[0]), fmt(bq[2])),
            "%s [%s, %s]" % (fmt(cq[1]), fmt(cq[0]), fmt(cq[2])), ratio, won))


def fmt(value):
    return "-" if value is None else "%.4g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        die("--pairs and --seconds must be >= 1 and --seed >= 0")

    commit, base_root = export_base(args.base)
    base = Arm("base", base_root, os.path.join(base_root, ".bench_build"))
    change = Arm("change", ROOT, os.path.join(AB_DIR, "work"))
    better = directions()
    print("perf_ab: base %s vs working tree, workload %s, seed %d, "
          "%d pairs x %d s, trace %d" % (commit[:12], args.workload,
                                         args.seed, args.pairs, args.seconds,
                                         args.trace))

    all_correct = True
    failed = {base.name: [0, 0], change.name: [0, 0]}
    for arm in (base, change):  # build, and check the arm runs at all
        result = arm.run(args, 1)
        if result is None or result["correct"] is not True:
            die("%s arm warm-up run failed" % arm.name)
    for i in range(args.pairs):
        order = (base, change) if i % 2 == 0 else (change, base)
        for arm in order:
            result = arm.run(args, args.seconds)
            if result is None:
                all_correct = False
                arm.runs.append({})
                continue
            all_correct = all_correct and result["correct"] is True
            failed[arm.name][0] += result["failed"]
            failed[arm.name][1] += result["attempted"]
            arm.runs.append({n: m["value"]
                             for n, m in result["metrics"].items()})
        print("  pair %d/%d done" % (i + 1, args.pairs), flush=True)

    report(base, change, better)
    for name, (bad, attempted) in failed.items():
        print("%s: %d of %d operations failed" % (name, bad, attempted))
    if not all_correct:
        print("perf_ab: a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
