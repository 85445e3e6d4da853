#!/usr/bin/env python3
"""Build and run the B-link store benchmark.

One run, from the root of the repository:

    python3 perfbench/run.py --workload point-hot --seed 1 --seconds 20 --trace 0

prints an environment record, bench.exe's own lines, and as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
gives the end-to-end metrics, --trace 1 the per-layer metrics of the traced
ladder (spans are written to .bench_out/).

Steadiness report over several seeds (median, quartiles, min/max of every
timed metric; count metrics checked identical for two runs of one seed):

    python3 perfbench/run.py --report --workload write-cold --runs 5
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".bench_out"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["point-hot", "write-cold", "scan-mvcc"]
# The client shares the benchmark process with the server, and every minor
# collection stops all domains, the server worker's included. A 1M-word
# minor heap (8 MB per domain) makes the client's collections four times
# rarer; under the 256k-word default they set the write and scan tails.
RUN_ENV = dict(os.environ, OCAMLRUNPARAM="s=1M")
# metrics that count work rather than time it: exact at a fixed seed
COUNT_METRICS = ["data_bytes_per_key", "wal_bytes_per_write"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def capture(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def env():
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    fs = capture(["stat", "-f", "-c", "%T", OUT]) or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ocaml": capture(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
        "git_rev": capture(["git", "rev-parse", "--short", "HEAD"]) or "none (not a git checkout)",
        # the store's data file and WAL are memfds (bench.ml, memfd.c)
        "storage": "memfd tmpfs files, linked from %s/ (on %s)" % (OUT, fs),
        "tmpfs": True,
        "flush": "fsync per acked write batch; tmpfs, device cost not measured",
    }


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a checkout of the repository (missing %s)" % need)
    if shutil.which("dune") is None:
        fail("dune not found")
    e = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        cwd=ROOT, env=e, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, trace, echo=True):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", OUT]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=RUN_ENV, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("run timed out (the benchmark process was killed)")
    if echo:
        sys.stdout.write(p.stdout)
        sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    counts = [l for l in lines if l.startswith("counts ")]
    return p.returncode, result, counts


def report(args):
    seeds = list(range(1, args.runs + 1))
    values = {}
    for s in seeds:
        code, res, _ = run_once(args.workload, s, args.seconds, args.trace, echo=False)
        if code != 0 or res is None or not res["correct"]:
            fail("run at seed %d failed (exit %d)" % (s, code))
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print("seed %d done" % s, file=sys.stderr)
    print("%-34s %12s %12s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "min", "max", "iqr/med"))
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print("%-34s %12.4f %12.4f %12.4f %12.4f %12.4f %7.1f%%"
              % (k, statistics.median(vs), q1, q3, min(vs), max(vs), 100 * spread))
    if args.trace == 0:
        # exact-count check: the same seed twice gives identical counts
        _, a, ca = run_once(args.workload, seeds[0], args.seconds, 0, echo=False)
        _, b, cb = run_once(args.workload, seeds[0], args.seconds, 0, echo=False)
        for k in COUNT_METRICS:
            va, vb = a["metrics"][k]["value"], b["metrics"][k]["value"]
            if va != vb:
                fail("count metric %s differs at seed %d: %r vs %r" % (k, seeds[0], va, vb))
        if ca != cb or not ca:
            fail("fixed-work counters differ at seed %d: %r vs %r" % (seeds[0], ca, cb))
        print("count metrics identical at seed %d: %s" % (seeds[0], ", ".join(COUNT_METRICS)))
        print(ca[0])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20,
                    help="size of the timed phase: the workload's reference batch rate times this")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", action="store_true", help="steadiness report over seeds 1..--runs")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    build()
    if args.report:
        report(args)
        return
    e = env()
    for k, v in e.items():
        print("env %s=%s" % (k, v))
    sys.stdout.flush()
    code, res, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        fail("no result line (exit %d)" % code)
    sys.exit(code)


if __name__ == "__main__":
    main()
