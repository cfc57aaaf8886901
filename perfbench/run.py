#!/usr/bin/env python3
"""Builds and runs the skewsearch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

With --workload, runs that one workload in its own process; the last line
of stdout is the JSON result. Without it, runs every workload, each in its
own process, and prints each one's metric table. Run from the repository
root. The library and the perfbench binary are compiled from source into
.bench_build/ (Release) on first use; later runs only rebuild what changed.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("search", "search-frozen", "ingest", "join")

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
BINARY = BUILD / "perfbench"


def build():
    """Configures (once) and builds perfbench; build logs go to stderr."""
    if not (ROOT / "src").is_dir():
        sys.exit("perfbench: no library sources at %s; run from a checkout "
                 "of the repository" % (ROOT / "src"))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j",
                    str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)


def run(workload, seed, seconds, trace, capture=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(WORK)]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    if args.workload:
        return run(args.workload, args.seed, args.seconds,
                   args.trace).returncode
    status = 0
    for workload in WORKLOADS:
        result = run(workload, args.seed, args.seconds, args.trace,
                     capture=True)
        lines = result.stdout.splitlines()
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("# ")))
        status = status or result.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
