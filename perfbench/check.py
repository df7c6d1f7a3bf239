"""Checks on the four files one ``windowlab all`` run writes.

``problems`` returns a list of human-readable faults (empty when the run is
good); ``digests`` returns the SHA-256 of the two files whose bytes the
ROADMAP requires to stay fixed at a given seed.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

OUTPUT_FILES = ("error_rates.csv", "stats_report.csv", "gain_sweeps.csv", "summary.txt")
DIGESTED = ("error_rates.csv", "stats_report.csv")
ERROR_HEADER = ["dataset_index", "centroid_distance", "method", "error_rate", "tuned_parameter"]
REPORT_HEADER = [
    "section", "pool", "a", "b", "test", "statistic", "p_value",
    "alternative", "n_effective", "note",
]


def digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in DIGESTED
    }


def _error_rate_problems(path: Path, n_datasets: int, methods: tuple[str, ...]) -> list[str]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ERROR_HEADER:
        return [f"{path.name}: unexpected header"]
    body = rows[1:]
    out = []
    if len(body) != n_datasets * len(methods):
        out.append(
            f"{path.name}: {len(body)} rows, expected {n_datasets} datasets x "
            f"{len(methods)} methods = {n_datasets * len(methods)}"
        )
    cells = set()
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(ERROR_HEADER):
            out.append(f"{path.name}:{lineno}: {len(row)} fields")
            continue
        try:
            err = float(row[3])
        except ValueError:
            out.append(f"{path.name}:{lineno}: error rate {row[3]!r} is not a number")
            continue
        if not 0.0 <= err <= 1.0:
            out.append(f"{path.name}:{lineno}: error rate {err} outside [0, 1]")
        cells.add((row[0], row[2]))
    expected = {(str(k), m) for k in range(n_datasets) for m in methods}
    if cells != expected:
        out.append(f"{path.name}: (dataset, method) cells differ from the configured grid")
    return out


def _report_problems(path: Path) -> list[str]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != REPORT_HEADER:
        return [f"{path.name}: unexpected header"]
    if len(rows) < 2:
        return [f"{path.name}: no test rows"]
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(REPORT_HEADER):
            out.append(f"{path.name}:{lineno}: {len(row)} fields")
            continue
        p_value = row[6]
        try:
            if p_value and not 0.0 <= float(p_value) <= 1.0:
                out.append(f"{path.name}:{lineno}: p-value {p_value} outside [0, 1]")
        except ValueError:
            out.append(f"{path.name}:{lineno}: p-value {p_value!r} is not a number")
    return out


def problems(out_dir: Path, n_datasets: int, methods: tuple[str, ...]) -> list[str]:
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing output file(s): {', '.join(missing)}"]
    return _error_rate_problems(out_dir / "error_rates.csv", n_datasets, methods) + (
        _report_problems(out_dir / "stats_report.csv")
    )
