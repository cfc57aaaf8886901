#!/usr/bin/env python3
"""Steadiness report: each end-to-end metric's median and spread over runs.

    python3 perfbench/steady.py [--runs 10] [--workloads search,join]
                                [--first-seed 1] [--save FILE]
                                [--against FILE]

Runs every chosen workload --runs times, each with another seed, through
perfbench/run.py with BENCHMARK.json's run_seconds, and prints for each
end-to-end metric its median, quartiles and spread (Q3 - Q1 as a share of
the median, from statistics.quantiles(values, n=4)) against the metric's
bound. A spread above the bound fails; one above a third of it is flagged.
setup_s's spread is reported but not judged. --save writes the values as
JSON; --against FILE also compares each median with that saved run set's
median and fails a metric that got worse by more than its bound.
Run from the repository root.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit("%s seed %d failed (exit %d)" % (workload, seed,
                                                   proc.returncode))
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, new, old):
    """Relative change of `new` against `old` in the metric's bad direction."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return -change if metric["better"] == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    previous = json.loads(pathlib.Path(args.against).read_text()) \
        if args.against else {}
    values = {}
    failed = False
    for workload in workloads:
        start = time.monotonic()
        runs = [run_once(workload, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        print("%-13s %d runs, %.1f s per run" % (
            workload, args.runs, (time.monotonic() - start) / args.runs))
        values[workload] = {m["name"]: [r[m["name"]] for r in runs]
                            for m in bench["end_to_end"]}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict, failed = "TOO NOISY", True
            elif name != "setup_s" and spread > bound / 3:
                verdict = "above bound/3"
            line = ("%-13s %-18s median %12.6g  q1 %12.6g  q3 %12.6g  "
                    "spread %6.3f  bound %.3f  %s"
                    % (workload, name, median, q1, q3, spread, bound, verdict))
            old = previous.get(workload, {}).get(name)
            if old:
                shift = worse_by(metric, median, statistics.median(old))
                line += "  worse-by %+.3f" % shift
                if shift > bound:
                    line += " REGRESSED"
                    failed = True
            print(line, flush=True)
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(values, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
