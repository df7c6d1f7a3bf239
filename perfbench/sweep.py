"""Run the benchmark over many seeds and summarise each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --workloads paper-sweep,long-series --seeds 1-10 --trace 0

Each (workload, seed) is one ``run.py`` process, run one at a time with the
``run_seconds`` of BENCHMARK.json.  For every metric the summary gives the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, which for an end-to-end metric should stay under a
third of its bound.  ``--json`` also writes the values for later comparison.
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


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write every value here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
                status = 1
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            ), flush=True)
        print(f"\n{workload}: {failed} of {attempted} processes failed")
        print(f"{'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  n")
        rows = {}
        for name, vals in values.items():
            if len(vals) >= 2:
                q1, median, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = median = q3 = vals[0]
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of bound"
            print(f"{name:<30}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.4f}"
                  f"{'' if bound is None else bound:>7}  {len(vals)}{flag}")
            rows[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": rows}
        print()
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
