#!/usr/bin/env python3
"""Compares perfbench's deterministic first-round counters with the record.

Runs `python3 perfbench/run.py --workload <w> --seed 1 --seconds 0 --trace 1`
for every workload in `BENCH_counters.json` and fails on any counter that
differs from the recorded value. The counters are work counts (semi-join
rounds, backtrack steps, leapfrog seeks, eliminated variables, governor
steps and checkpoints, query-cache evictions, invalidations and entries
that survived appends), so they are the same on every machine; a change
that moves them must re-record them and say why.

Run from the repository root:

    python3 scripts/check_counters.py            # check
    python3 scripts/check_counters.py --write    # re-record
"""

import json
import os
import subprocess
import sys

RECORD = "BENCH_counters.json"
WORKLOADS = ["strvars", "crpq_large", "serve_ingest"]
COUNTERS = [
    "domains.rounds",
    "solve.backtrack_steps",
    "solve.intersection_seeks",
    "solve.eliminated_vars",
    "governor.steps",
    "governor.checkpoints",
    "cache.evictions",
    "cache.invalidated",
    "cache.survived_appends",
]
ARGS = ["--seed", "1", "--seconds", "0", "--trace", "1"]


def counters(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload] + ARGS,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: perfbench reports incorrect results")
    return {name: int(result["metrics"][name]["value"]) for name in COUNTERS}


def fingerprint():
    rev = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        stdout=subprocess.PIPE,
        text=True,
    ).stdout.strip()
    return {"threads": os.cpu_count(), "profile": "release", "git_rev": rev or "unknown"}


def main():
    if "--write" in sys.argv[1:]:
        record = {
            "bench": "perfbench counters",
            "command": "python3 perfbench/run.py --workload <w> " + " ".join(ARGS),
            "env": fingerprint(),
            "workloads": {w: counters(w) for w in WORKLOADS},
        }
        with open(RECORD, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
        print(f"recorded {RECORD}")
        return
    with open(RECORD) as f:
        record = json.load(f)
    failures = []
    for workload, expected in record["workloads"].items():
        got = counters(workload)
        for name, want in expected.items():
            status = "ok" if got[name] == want else "MISMATCH"
            print(f"{workload:<13} {name:<26} {want:>12} {got[name]:>12}  {status}")
            if got[name] != want:
                failures.append(f"{workload} {name}: recorded {want}, got {got[name]}")
    if failures:
        sys.exit("counter mismatch:\n  " + "\n  ".join(failures))


if __name__ == "__main__":
    main()
