"""Measure every workload over ten seeds and append a ledger row.

Usage (from the repository root)::

    python3 perfbench/ledger.py --note "what this commit changed"

Runs ``perfbench/run.py`` once per workload and seed (seeds 1-10,
never the held-out seed), prints each end-to-end metric's
median and quartile spread (IQR over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), and appends
one JSON row with the medians and the runs' provenance to
``perfbench/ledger.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def measure(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    row = {"note": args.note, "seeds": SEEDS,
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = [measure(workload, seed, spec["run_seconds"])
                for seed in SEEDS]
        for run in runs:
            if not run["result"]["correct"]:
                print("%s seed %s failed: %s" % (
                    workload, run["report"]["provenance"]["seed"],
                    run["report"]["failures"]), file=sys.stderr)
        entry = {"correct": all(run["result"]["correct"] for run in runs),
                 "median": {}, "spread": {}}
        for name in bounds:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            entry["median"][name] = statistics.median(values)
            entry["spread"][name] = spread(values)
            print("%-15s %-15s median %12.4f  spread %.3f  (bound %.2f)  %s"
                  % (workload, name, entry["median"][name],
                     entry["spread"][name], bounds[name],
                     " ".join("%.4g" % value for value in values)),
                  flush=True)
        row["workloads"][workload] = entry
        provenance = runs[0]["report"]["provenance"]
        for key in ("commit", "src_sha256", "nproc", "python", "numpy"):
            row[key] = provenance[key]
    with open(HERE / "ledger.jsonl", "a") as ledger:
        ledger.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
