"""One measured process: run ``windowlab all`` and write a JSON record.

Usage (from run.py, never by hand)::

    python3 perfbench/child.py RECORD MODE -- <windowlab all arguments>

MODE is ``bare`` (start Python and numpy, then stop: the yardstick for
set-up), ``setup`` (stop as soon as the experiment stage is entered), ``plain``
(time only the experiment stage) or ``trace`` (wrap every layer's public entry
points instead and keep one span per call).  Timestamps are ``time.monotonic``
readings, which share one clock with the parent, so the parent can measure
from the moment it spawned this process.

In ``plain`` mode a host-speed probe also runs: every
``PROBE_PERIOD_S`` of wall time a timer signal interrupts the program and
times one fixed slice of benchmark-owned work (``probe_slice``), so the
parent can tell how fast the host ran while the program ran and take the
probe time back out (see ``run.host_scaled``).  Bare, set-up and traced
processes run no probe, so their times are the program's own.

Layers are wrapped from outside by replacing each public function in every
``windowlab`` module namespace that binds it; a missing entry point is an
error naming it, never a silent zero.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class StopAfterSetup(BaseException):
    """Raised at experiment entry in setup mode; not an ``Exception``, so
    the CLI's error handler lets it through."""


class EntryPointMissing(RuntimeError):
    pass


PROBE_PERIOD_S = 0.025
# Median time of one probe slice on the reference host (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4) at its usual speed; reported times are scaled to it.
PROBE_REFERENCE_S = 0.0009

_PROBE_SORTED = np.cumsum(np.arange(1.0, 401.0))
_PROBE_VECTOR = np.linspace(-1.0, 1.0, 8000)
_PROBE_MASK = _PROBE_VECTOR > 0


def probe_slice() -> int:
    """Fixed work in the program's own mix: a bytecode loop, many tiny numpy
    calls (like the budget walks) and whole-array passes over an
    8,000-element vector (like the solver).  When the host is busy it slows
    about as much as paper-sweep and coarse-budget do, and somewhat more than
    long-series, whose scaled times therefore read a few percent low then."""
    total = 0
    for i in range(3750):
        total += i * i
    for i in range(375):
        np.searchsorted(_PROBE_SORTED, i * 3.7)
    for _ in range(15):
        total += int(np.argmax(np.where(_PROBE_MASK, _PROBE_VECTOR, -np.inf)))
    return total


class HostProbe:
    """Times one ``probe_slice`` per timer tick; keeps [start, duration] pairs.

    The handler runs in the main thread between bytecodes, so the program is
    paused while the slice runs and the parent can subtract every slice."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a slice is dropped
            return
        self._busy = True
        start = time.monotonic()
        probe_slice()
        self.samples.append([start, time.monotonic() - start])
        self._busy = False

    def start(self) -> None:
        probe_slice()  # warm the slice's code and data before the first sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Tracer:
    """In-memory spans: name, start, end, parent span, dataset index, counts.

    Calls are tied to their dataset by object identity: the suite's splits
    are registered when the suite is generated, and each derived series
    (scores, signals) inherits the index of the split it came from."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._dataset_of: dict[int, int] = {}
        self.lam_split = math.inf

    def dataset(self, obj) -> int | None:
        return self._dataset_of.get(id(obj))

    def register(self, obj, index: int | None) -> None:
        if index is not None:
            self._dataset_of[id(obj)] = index

    def wrap(self, fn, begin, end=None):
        """``begin(args)`` gives (span name, dataset) before the call;
        ``end(args, result, dataset)`` gives the counts after a normal return."""

        def traced(*args, **kwargs):
            name, dataset = begin(args)
            span = {"name": name, "dataset": dataset, "counts": {},
                    "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()
            if end is not None:
                span["counts"] = end(args, result, dataset)
            return result

        return traced


def _patch(module_name: str, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` wherever a windowlab module binds that object."""
    module = sys.modules.get(f"windowlab.{module_name}")
    original = getattr(module, attr, None) if module is not None else None
    if original is None:
        raise EntryPointMissing(f"wrapped entry point windowlab.{module_name}.{attr} is missing")
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "windowlab" or name.startswith("windowlab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _lifespans(population):
    cells = getattr(population, "cells", None)
    if cells is None:
        raise EntryPointMissing("windowlab.dca.DCAPopulation.cells is missing")
    return [cell.lifespan for cell in cells]


def install_tracer(tracer: Tracer) -> None:
    from windowlab import stats

    def named(name, arg=None):
        """begin() for a span whose dataset is that of positional ``arg``."""
        return lambda args: (name, None if arg is None else tracer.dataset(args[arg]))

    def side(lam: float) -> str:
        return "low" if lam < tracer.lam_split else "high"

    def dca_lambda(signals, population) -> float:
        # Lifespans are max(csm) * (l/m) * lambda, so the longest one over
        # max(csm) recovers lambda.
        return max(_lifespans(population)) / float(np.max(signals.safe + signals.danger))

    def suite_end(args, result, dataset):
        for k, ds in enumerate(result):
            tracer.register(ds.train, k)
            tracer.register(ds.test, k)
        return {"datagen.instances": sum(len(ds.train) + len(ds.test) for ds in result)}

    def score_end(args, result, dataset):
        tracer.register(result, dataset)
        return {"svm.instances_scored": len(result)}

    def preprocess_end(args, result, dataset):
        tracer.register(result, dataset)
        return {}

    def test_end(args, result, dataset):
        exact = result.test.startswith("wilcoxon") and result.n_effective <= stats.EXACT_LIMIT
        return {"stats.tests_run": 1, "stats.exact_wilcoxon": int(exact)}

    table = [
        ("harness", "run_experiment", named("harness"), None),
        ("datagen", "generate_benchmark_suite", named("datagen.suite"), suite_end),
        ("svm", "train", named("svm.train", 0), lambda args, result, k: {
            "svm.train_calls": 1,
            "svm.support_vectors": int(np.count_nonzero(result.alphas > 0)),
        }),
        ("svm", "score_series", named("svm.score", 1), score_end),
        ("windows", "tune_static", named("windows.tune_static", 0), lambda args, result, k: {
            "windows.widths_tried": len(args[1].sizes),
        }),
        ("windows", "tune_dynamic", lambda args: (
            f"windows.tune_dynamic_{side(args[1].lam)}", tracer.dataset(args[0])
        ), lambda args, result, k: {"windows.budgets_tried": len(args[1].thresholds)}),
        ("windows", "apply", named("windows.apply", 1), None),
        ("dca", "preprocess", named("dca.preprocess", 0), preprocess_end),
        ("dca", "run_dca", lambda args: (
            f"dca.run_{side(dca_lambda(*args[:2]))}", tracer.dataset(args[0])
        ), lambda args, result, k: {"dca.cell_passes": len(_lifespans(args[1])) * len(args[0])}),
        ("harness", "analyze", named("stats.analyze"), None),
        ("stats", "shapiro_wilk", named("stats.test"), test_end),
        ("stats", "wilcoxon_signed_rank", named("stats.test"), test_end),
        ("stats", "paired_t_test", named("stats.test"), test_end),
        ("harness", "emit_outputs", named("output.emit"), lambda args, result, k: {
            "output.bytes": sum(Path(p).stat().st_size for p in result.values()),
        }),
        ("freq", "write_gain_sweeps", named("freq.sweep"), None),
    ]
    for module_name, attr, begin, end in table:
        _patch(module_name, attr, lambda fn, b=begin, e=end: tracer.wrap(fn, b, e))

    def split_lambdas(traced):
        def enter(config, *args, **kwargs):
            # Scale factors below the geometric mean of the two are "low".
            tracer.lam_split = math.sqrt(config.lambda_low * config.lambda_high)
            return traced(config, *args, **kwargs)

        return enter

    _patch("harness", "run_experiment", split_lambdas)


def install_stage_timer(record: dict, stop: bool) -> None:
    """Time ``harness.run_experiment`` only: its entry ends set-up."""

    def make(fn):
        def timed(config, *args, **kwargs):
            record["experiment_start"] = time.monotonic()
            if stop:
                raise StopAfterSetup
            result = fn(config, *args, **kwargs)
            record["experiment_end"] = time.monotonic()
            record["datasets"] = config.n_datasets
            return result

        return timed

    _patch("harness", "run_experiment", make)


def _versions() -> dict:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv: list[str]) -> int:
    record_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("bare", "setup", "plain", "trace"):
        raise SystemExit("usage: child.py RECORD bare|setup|plain|trace -- ARGS...")
    record: dict = {"mode": mode}
    if mode == "bare":  # the interpreter and numpy, nothing of windowlab
        record["end"] = time.monotonic()
        Path(record_path).write_text(json.dumps(record), encoding="utf-8")
        return 0
    probe = None
    if mode == "plain":
        probe = HostProbe()
        probe.start()

    sys.path.insert(0, str(ROOT / "src"))
    import windowlab.cli

    source = ROOT / "src" / "windowlab"
    if Path(windowlab.__file__).resolve().parent != source:
        raise SystemExit(f"imported windowlab from {windowlab.__file__}, not from {source}")

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install_tracer(tracer)
    else:
        install_stage_timer(record, stop=mode == "setup")

    try:
        status = windowlab.cli.main(["all", *cli_args])
    except StopAfterSetup:
        status = 0
    if probe is not None:
        probe.stop()
    record["end"] = time.monotonic()
    record["status"] = status
    if tracer is not None:
        record["spans"] = tracer.spans
    if probe is not None:
        record["probes"] = probe.samples
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["versions"] = _versions()
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
