#!/usr/bin/env python3
"""Self-test of the benchmark: determinism of its work counters.

    python3 perfbench/test_determinism.py [--workloads search,join] [--seed 7]

For each workload, runs a traced run twice at one seed and once at the next
seed (with --seconds 1: the counters come from fixed, seeded op lists, not
from how much fits in the time). Every work counter — keys, candidates,
verifications, draws and nodes per build, compactions, checkpoints, WAL
bytes, replayed records, join pairs, planted targets found (recall) — must
repeat exactly at the same seed, and the data-dependent ones must change
with the seed. Also checks that the perfbench binary's metric lists are
the ones BENCHMARK.json declares and that an untraced run reports exactly
the end-to-end metrics, all non-zero. Exits non-zero on any failure.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"

# Counters that depend on the generated data, so a new seed must move them.
SEED_DEPENDENT = {
    "search": ["keys", "candidates", "verifications", "build.draws"],
    "search-frozen": ["keys", "candidates", "verifications", "build.draws"],
    "ingest": ["keys", "candidates", "wal_bytes", "build.draws"],
    "join": ["candidates", "verifications", "build.draws"],
}


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    counters = {}
    for line in lines:
        if line.startswith("# counters "):
            counters = json.loads(line[len("# counters "):])
    return proc.returncode, counters, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="search,search-frozen,ingest,join")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in args.workloads.split(","):
        code, first, result = run(workload, args.seed, 1)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              "%s: traced run correct" % workload)
        check(sorted(result["metrics"]) ==
              sorted(m["name"] for m in bench["per_layer"]),
              "%s: traced run reports exactly the per-layer metrics" %
              workload)
        _, again, _ = run(workload, args.seed, 1)
        check(bool(first) and first == again,
              "%s: counters repeat at seed %d" % (workload, args.seed))
        for name in sorted(set(first) | set(again)):
            if first.get(name) != again.get(name):
                print("      %s: %s vs %s" % (name, first.get(name),
                                              again.get(name)))
        _, other, _ = run(workload, args.seed + 1, 1)
        for name in SEED_DEPENDENT[workload]:
            check(name in first and first.get(name) != other.get(name),
                  "%s: counter %s changes with the seed" % (workload, name))
        code, _, result = run(workload, args.seed, 0)
        metrics = result.get("metrics", {})
        check(code == 0 and result.get("correct") and
              sorted(metrics) == sorted(m["name"] for m in bench["end_to_end"])
              and all(m["value"] != 0 for m in metrics.values()),
              "%s: untraced run reports every end-to-end metric, non-zero" %
              workload)

    listed = subprocess.run([str(BINARY), "--list-metrics"],
                            stdout=subprocess.PIPE,
                            text=True).stdout.splitlines()
    declared = ["end_to_end %s %s" % (m["name"], m["unit"])
                for m in bench["end_to_end"]] + \
               ["per_layer %s %s" % (m["name"], m["unit"])
                for m in bench["per_layer"]]
    check(listed == declared,
          "perfbench metric lists match BENCHMARK.json")
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
