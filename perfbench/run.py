"""Benchmark of the real ``windowlab all`` path on named workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 20260808 --seconds 40 --trace 0

Every measurement is a fresh ``python3 perfbench/child.py`` process, started
by this parent one at a time, that runs ``windowlab all`` from ``src/``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced processes and reports the per-layer metrics, the
tracing overhead and whether the traced outputs match the untraced bytes.
Every process's outputs are checked (``check.py``) and digested; a process
that fails, writes bad outputs or disagrees with the recorded digest
(``digests.json``) or with the other processes of the run counts as failed.

The host this runs on changes speed by 20% and more within seconds (other
tenants share its cores), so ``wall_s`` and ``datasets_per_s`` are
host-scaled: each untraced process times a fixed slice of benchmark-owned
work every 25 ms (``child.HostProbe``), and ``host_scaled`` removes the
slices' time and rescales what is left to the reference host speed.  A
change to windowlab still moves these times, less only what it changes in
the slices' own speed through the caches (a few percent between the
workloads); a change in host speed does not.  The report lines also give
each process's raw wall time.
``setup_s`` is scaled by bare processes instead (see ``scaled_setups``).

The last line of standard output is the JSON result; the lines before it
are a readable report with sample counts and the run's stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = Path(child.__file__).resolve()
DIGESTS = HERE / "digests.json"
RUNS_DIR = ROOT / ".perfbench_runs"

ALL_METHODS = ("LNC", "SMOV", "DMOV1", "DMOV2", "DCA1", "DCA2")
SETUP_PAIRS_PER_ROUND = 4
# Seconds a bare process (Python and numpy, see child.py) takes on the
# reference host at its usual speed; set-up is scaled to it.
BARE_REFERENCE_S = 0.13
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND_TAIL = 10


@dataclass(frozen=True)
class Workload:
    methods: tuple[str, ...]
    datasets: int
    split: int  # instances per train and per test split

    def cli_args(self, seed: int, datasets: int, out_dir: Path) -> list[str]:
        return [
            "--seed", str(seed),
            "--datasets", str(datasets),
            "--methods", ",".join(self.methods),
            "--n-train", str(self.split),
            "--n-test", str(self.split),
            "--out", str(out_dir),
        ]


# paper-sweep is the paper's configuration (all six methods, default grids,
# lambda 1,100, 1,000 instances per split) on a 20-dataset sweep: the full
# 100-dataset sweep (``--datasets 100``) takes over a minute on two cores,
# longer than one run.  Nearly all of its time is in the two lambda=1
# budget walks (DMOV1 tuning and DCA1); 20 datasets keep a tail percentile.
# coarse-budget runs the same budget-walk code with lambda=100 only: a few
# long windows per budget instead of tens of thousands of short ones.
# long-series skips the budget walks; the SVM solver does nearly all the
# work, and per-dataset time is bimodal (overlapping vs separable).
WORKLOADS = {
    "paper-sweep": Workload(ALL_METHODS, datasets=20, split=1000),
    "coarse-budget": Workload(("LNC", "SMOV", "DMOV2", "DCA2"), datasets=100, split=1000),
    "long-series": Workload(("LNC", "SMOV"), datasets=40, split=8000),
}

END_TO_END = {
    "wall_s": "s",
    "datasets_per_s": "datasets/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span name -> per-layer time metric its self time adds to.  Statistical
# tests run inside harness.analyze and belong to the same layer.
SPAN_METRIC = {
    "harness": "harness.self_s",
    "datagen.suite": "datagen.suite_s",
    "svm.train": "svm.train_s",
    "svm.score": "svm.score_s",
    "windows.tune_static": "windows.tune_static_s",
    "windows.tune_dynamic_low": "windows.tune_dynamic_low_s",
    "windows.tune_dynamic_high": "windows.tune_dynamic_high_s",
    "windows.apply": "windows.apply_s",
    "dca.preprocess": "dca.preprocess_s",
    "dca.run_low": "dca.run_low_s",
    "dca.run_high": "dca.run_high_s",
    "stats.analyze": "stats.analyze_s",
    "stats.test": "stats.analyze_s",
    "output.emit": "output.emit_s",
    "freq.sweep": "freq.sweep_s",
}
COUNT_UNITS = {
    "datagen.instances": "count",
    "svm.train_calls": "count",
    "svm.support_vectors": "count",
    "svm.instances_scored": "count",
    "windows.widths_tried": "count",
    "windows.budgets_tried": "count",
    "dca.cell_passes": "count",
    "stats.tests_run": "count",
    "stats.exact_wilcoxon": "count",
    "output.bytes": "B",
}
# The entry point that makes each span, and the spans each method needs.
ENTRY_POINTS = {
    "harness": "harness.run_experiment",
    "datagen.suite": "datagen.generate_benchmark_suite",
    "svm.train": "svm.train",
    "svm.score": "svm.score_series",
    "windows.tune_static": "windows.tune_static",
    "windows.tune_dynamic_low": "windows.tune_dynamic",
    "windows.tune_dynamic_high": "windows.tune_dynamic",
    "windows.apply": "windows.apply",
    "dca.preprocess": "dca.preprocess",
    "dca.run_low": "dca.run_dca",
    "dca.run_high": "dca.run_dca",
    "stats.analyze": "harness.analyze",
    "stats.test": "stats.shapiro_wilk / wilcoxon_signed_rank / paired_t_test",
    "output.emit": "harness.emit_outputs",
    "freq.sweep": "freq.write_gain_sweeps",
}
METHOD_SPANS = {
    "LNC": ("svm.train", "svm.score"),
    "SMOV": ("svm.train", "svm.score", "windows.tune_static", "windows.apply"),
    "DMOV1": ("svm.train", "svm.score", "windows.tune_dynamic_low", "windows.apply"),
    "DMOV2": ("svm.train", "svm.score", "windows.tune_dynamic_high", "windows.apply"),
    "DCA1": ("dca.preprocess", "dca.run_low"),
    "DCA2": ("dca.preprocess", "dca.run_high"),
}
ALWAYS_SPANS = ("harness", "datagen.suite", "stats.analyze", "stats.test", "output.emit", "freq.sweep")
DATASET_SPANS = {name for spans in METHOD_SPANS.values() for name in spans}

PER_LAYER = {
    **{metric: "s" for metric in SPAN_METRIC.values()},
    **COUNT_UNITS,
    "harness.dataset_ms_p50": "ms",
    "harness.dataset_ms_tail": "ms",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_LADDER with at least 10 samples beyond it."""
    fits = [p for p in TAIL_LADDER if n - max(1, math.ceil(p * n / 100)) >= MIN_BEYOND_TAIL]
    return max(fits) if fits else None


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Inherited environment with every BLAS/OpenMP pool capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    return env


def host_scaled(begin: float, end: float, probes) -> float:
    """Time from ``begin`` to ``end`` at the reference host speed.

    Probe slices that started in the interval paused the program, so their
    time is taken out.  What is left is multiplied by the host's mean speed
    over the interval, ``PROBE_REFERENCE_S / slice time``, averaged over
    those slices."""
    inside = [dt for start, dt in probes if begin <= start < end]
    if not inside:
        raise BenchmarkError("no host-speed probe ran; cannot scale the time")
    speed = statistics.fmean(child.PROBE_REFERENCE_S / dt for dt in inside)
    return (end - begin - sum(inside)) * speed


@dataclass
class Outcome:
    mode: str
    spawn: float
    record: dict | None
    error: str | None = None

    @property
    def raw_wall_s(self) -> float:
        """Seconds from spawn to exit as the host ran, probe slices included."""
        return self.record["end"] - self.spawn

    @property
    def wall_s(self) -> float:
        return host_scaled(self.spawn, self.record["end"], self.record["probes"])

    @property
    def setup_s(self) -> float:
        """Raw, from a set-up-only process, which runs no probe."""
        return self.record["experiment_start"] - self.spawn

    @property
    def bare_s(self) -> float:
        return self.record["end"] - self.spawn

    @property
    def experiment_s(self) -> float:
        probes = self.record["probes"]
        return host_scaled(self.record["experiment_start"], self.record["experiment_end"], probes)

    @property
    def unprobed_wall_s(self) -> float:
        """Raw wall time less the probe slices: comparable with a traced process."""
        return self.raw_wall_s - sum(dt for _, dt in self.record["probes"])


def run_child(mode: str, cli_args: list[str], record_path: Path, env: dict) -> Outcome:
    record_path.unlink(missing_ok=True)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(record_path), mode, "--", *cli_args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Outcome(mode, spawn, None, f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not record_path.is_file():
        last = (proc.stderr.strip().splitlines() or ["no output on stderr"])[-1]
        return Outcome(mode, spawn, None, f"exit {proc.returncode}: {last}")
    return Outcome(mode, spawn, json.loads(record_path.read_text(encoding="utf-8")))


def judge(out_dir: Path, datasets: int, methods, reference: dict | None):
    """(error or None, digests or None) for one process's output files.

    ``reference`` is the recorded digest for this seed, or else the digest
    of the run's first good process; any difference fails the process."""
    faults = check.problems(out_dir, datasets, methods)
    if faults:
        return "; ".join(faults[:3]), None
    digests = check.digests(out_dir)
    if reference and digests != reference:
        return "output digest differs from the reference digest", digests
    return None, digests


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced process
# ---------------------------------------------------------------------------


def check_spans(spans: list[dict], methods: tuple[str, ...]) -> None:
    """Fail by name when an entry point the workload needs was never called,
    or a per-dataset call could not be tied to its dataset."""
    seen = {s.get("name") for s in spans}
    needed = set(ALWAYS_SPANS).union(*(METHOD_SPANS[m] for m in methods))
    for name in sorted(needed - seen):
        raise BenchmarkError(
            f"layer {name}: wrapped entry point windowlab.{ENTRY_POINTS[name]} was never called"
        )
    for s in spans:
        if s["name"] in DATASET_SPANS and s["dataset"] is None:
            raise BenchmarkError(f"layer {s['name']}: call not traceable to a dataset")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self time per layer, summed counts and per-dataset busy time."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {metric: 0.0 for metric in SPAN_METRIC.values()}
    out.update({metric: 0 for metric in COUNT_UNITS})
    per_dataset: dict[int, float] = {}
    root = next(i for i, s in enumerate(spans) if s["name"] == "harness")
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        out[SPAN_METRIC[s["name"]]] += duration - child_time[i]
        for key, value in s["counts"].items():
            out[key] += value
        if s["parent"] == root and s["dataset"] is not None:
            per_dataset[s["dataset"]] = per_dataset.get(s["dataset"], 0.0) + duration
    out["per_dataset_ms"] = [per_dataset[k] * 1e3 for k in sorted(per_dataset)]
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def stamp(args, workload: Workload, datasets: int, versions: dict, env: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "windowlab").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "datasets": datasets,
        "methods": ",".join(workload.methods),
        "split": workload.split,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: env[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--datasets",
        type=int,
        help="override the workload's sweep length (e.g. 100 for the paper's full sweep)",
    )
    return parser.parse_args(argv)


def measure(args) -> int:
    if not (ROOT / "src" / "windowlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no windowlab source under {ROOT / 'src'}; run from a full checkout")
    workload = WORKLOADS[args.workload]
    datasets = args.datasets or workload.datasets
    if tail_percentile(datasets) is None:
        raise BenchmarkError(f"--datasets must be at least {2 * MIN_BEYOND_TAIL}")
    env = child_env()
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(
        f"{args.workload} seed={args.seed} datasets={datasets}"
    )

    RUNS_DIR.mkdir(exist_ok=True)
    work = RUNS_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _measure(args, workload, datasets, env, recorded, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, workload, datasets, env, recorded, work: Path) -> int:
    out_dir = work / "out"
    record_path = work / "record.json"
    cli_args = workload.cli_args(args.seed, datasets, out_dir)

    warm = run_child("setup", cli_args, record_path, env)  # compiles .pyc, fills caches
    if warm.record is None:
        raise BenchmarkError(f"windowlab could not start: {warm.error}")
    deadline = time.monotonic() + args.seconds

    # Set-up pairs (a bare process, then a set-up-only one) are spread over
    # the run, a few before each round, so their median covers the same
    # stretch of time as the full processes.
    pairs = ("bare", "setup") * SETUP_PAIRS_PER_ROUND
    pattern = ("plain", "trace") if args.trace else pairs + ("plain",)
    min_rounds = 1 if args.trace else 2
    setups: list[Outcome] = []
    outcomes: list[Outcome] = []
    round_s: list[float] = []
    reference = recorded
    while True:
        started = time.monotonic()
        for mode in pattern:
            if mode in pairs:
                setups.append(run_child(mode, cli_args, record_path, env))
                continue
            shutil.rmtree(out_dir, ignore_errors=True)
            outcome = run_child(mode, cli_args, record_path, env)
            if outcome.record is not None:
                outcome.error, digests = judge(out_dir, datasets, workload.methods, reference)
                reference = reference or digests
            outcomes.append(outcome)
        round_s.append(time.monotonic() - started)
        if len(round_s) >= min_rounds and time.monotonic() + statistics.median(round_s) > deadline:
            break

    timed = [o for o in outcomes if o.record is not None]
    if not timed:
        raise BenchmarkError(f"every process failed; first error: {outcomes[0].error}")
    print("stamp " + json.dumps(stamp(args, workload, datasets, timed[0].record["versions"], env)))
    if reference:
        source = "recorded digest" if recorded else "first process of this run"
        print(f"reference ({source}): " + " ".join(f"{k}={v}" for k, v in reference.items()))
    for i, o in enumerate(outcomes, 1):
        wall = "-"
        if o.record is not None:
            wall = f"{o.raw_wall_s:.3f} s raw"
            if o.mode == "plain":
                wall += f", {o.wall_s:.3f} s host-scaled ({len(o.record['probes'])} probes)"
        print(f"process {i} ({o.mode}): wall {wall} " + ("ok" if o.error is None else f"FAILED: {o.error}"))

    plain = [o for o in timed if o.mode == "plain"]
    if args.trace:
        traced = [o for o in timed if o.mode == "trace"]
        if not traced:
            first = next(o.error for o in outcomes if o.mode == "trace")
            raise BenchmarkError(f"no traced process finished; first error: {first}")
        samples, notes = per_layer_samples(traced, plain, workload.methods)
        units = PER_LAYER
    else:
        samples, notes = end_to_end_samples(plain, setups)
        units = END_TO_END

    print(f"{'metric':<30}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for metric, values in samples.items():
        q1, median, q3 = (f"{int(v):>14}" if float(v).is_integer() else f"{v:>14.6g}" for v in quartiles(values))
        print(f"{metric:<30}{median}{q1}{q3}{len(values):>4}  {units[metric]}  {notes.get(metric, '')}")
    failed = sum(1 for o in outcomes if o.error is not None)
    print(f"failed_frac {failed / len(outcomes):.4g} ({failed} of {len(outcomes)} processes)")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            metric: {"value": statistics.median(values), "unit": units[metric]}
            for metric, values in samples.items()
        },
    }
    print(json.dumps(result))
    return 0


def scaled_setups(setups: list[Outcome]) -> list[float]:
    """Each set-up-only process's time at the reference host speed.

    Set-up is import-bound and slows with the host far less than the probe
    slice does, but about as much as the bare process run just before it:
    set-up is scaled by ``BARE_REFERENCE_S`` over that process's time.  A
    change to windowlab's imports or config still moves it in full."""
    return [
        setup.setup_s * BARE_REFERENCE_S / bare.bare_s
        for bare, setup in zip(setups[::2], setups[1::2])
        if bare.record is not None and setup.record is not None
    ]


def end_to_end_samples(plain: list[Outcome], setups: list[Outcome]):
    samples = {
        "wall_s": [o.wall_s for o in plain],
        "datasets_per_s": [o.record["datasets"] / o.experiment_s for o in plain],
        "setup_s": scaled_setups(setups),
        "peak_rss_mb": [o.record["peak_rss_kb"] / 1024 for o in plain],
    }
    if not plain or not samples["setup_s"]:
        raise BenchmarkError("no untraced or no set-up pair of processes finished")
    notes = {metric: "host-scaled" for metric in ("wall_s", "datasets_per_s")}
    notes["setup_s"] = f"scaled by bare processes, {len(samples['setup_s'])} pairs"
    return samples, notes


def per_layer_samples(traced: list[Outcome], plain: list[Outcome], methods):
    if not plain:
        raise BenchmarkError("no untraced process finished; tracing overhead unknown")
    per_run = []
    for o in traced:
        check_spans(o.record["spans"], methods)
        per_run.append(layer_metrics(o.record["spans"]))
    samples = {metric: [m[metric] for m in per_run] for metric in per_run[0] if metric in PER_LAYER}
    # Each dataset's busy time is its median over the traced processes.
    per_dataset = [statistics.median(v) for v in zip(*(m["per_dataset_ms"] for m in per_run))]
    tail = tail_percentile(len(per_dataset))
    samples["harness.dataset_ms_p50"] = [percentile(per_dataset, 50)]
    samples["harness.dataset_ms_tail"] = [percentile(per_dataset, tail)]
    traced_wall = statistics.median(o.raw_wall_s for o in traced)
    samples["trace.overhead_s"] = [traced_wall - statistics.median(o.unprobed_wall_s for o in plain)]
    notes = {
        "harness.dataset_ms_p50": f"p50 of {len(per_dataset)} datasets",
        "harness.dataset_ms_tail": f"p{tail:g} of {len(per_dataset)} datasets",
        "trace.overhead_s": f"traced minus untraced median raw wall time less probes ({len(traced)} vs {len(plain)})",
    }
    return samples, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
