"""End-to-end benchmark: generate the suite, run every method, compare.

Six method configurations are evaluated per dataset:

* ``LNC``   - the linear classifier alone, labeling test instances pointwise;
* ``SMOV``  - classifier scores post-filtered by a static moving window whose
  width is tuned on the training scores;
* ``DMOV1``/``DMOV2`` - scores post-filtered by the dynamic moving window with
  budget grids scaled by 1 and 100 respectively, tuned the same way;
* ``DCA1``/``DCA2``   - the deterministic dendritic-cell detector with lifespan
  ladders scaled by 1 and 100, run on the test split only (its preprocessing
  plays the role of training).

Per-dataset error rates feed the statistical battery: Shapiro-Wilk normality
screening per method, every pairwise two-sided comparison, and a one-sided
battery over the best parameterization of each distinct approach
(LNC, SMOV, DMOV2, DCA1) that establishes the performance ordering.  All
batteries are reported twice, once pooling all datasets and once restricted
to the non-separable regime, since the fully separable tail ties at zero
error.  Everything is deterministic given the suite seed; per-dataset work is
independent, and results are keyed by dataset index so execution order can
never change the output.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from enum import Enum
from functools import cached_property
from itertools import chain, combinations, product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import Record, dca, freq, whole_number, windows, write_lines
from . import svm as svm_mod
from .datagen import (
    CLASS1_MEAN,
    Dataset,
    GeneratorConfig,
    InstanceSeries,
    centroid_distance,
    generate_benchmark_suite,
)
from .stats import TestReport, normality_report, paired_report

#: Centroid distance beyond which the suite is treated as fully separable.
NONSEPARABLE_MAX_DISTANCE = 0.6

POOLS = ("all", "nonseparable")


class Method(str, Enum):
    LNC = "LNC"
    SMOV = "SMOV"
    DMOV1 = "DMOV1"
    DMOV2 = "DMOV2"
    DCA1 = "DCA1"
    DCA2 = "DCA2"

    def __str__(self) -> str:  # keep CSV cells plain
        return self.value


ALL_METHODS = tuple(Method)

#: Best parameterization of each distinct approach, best hypothesized first.
ORDERING_CANDIDATES = (Method.SMOV, Method.DMOV2, Method.DCA1, Method.LNC)

_LOW_SCALE = {Method.DMOV1, Method.DCA1}
_HIGH_SCALE = {Method.DMOV2, Method.DCA2}
_DCA = {Method.DCA1, Method.DCA2}


class ExperimentConfig(Record):
    """Everything needed to reproduce one full benchmark run.  Method names such
    as "SMOV" become members, and whole numbers given as floats become ints."""

    def __init__(self, seed: int, n_datasets: int = 100, methods: tuple[Method, ...] = ALL_METHODS,
                 svm_c: float = 1.0, window_grid: int = 100, threshold_grid: int = 100,
                 lambda_low: float = 1.0, lambda_high: float = 100.0,
                 n_train: int = GeneratorConfig.n_train,
                 n_test: int = GeneratorConfig.n_test) -> None:
        if not methods:
            raise ValueError("method list is empty")
        try:  # method_labels compares members by identity
            self.methods = tuple(map(Method, methods))
        except ValueError:
            valid = ", ".join(map(str, ALL_METHODS))
            raise ValueError(f"unknown method in {methods!r}; valid methods: {valid}") from None
        for k, method in enumerate(self.methods):
            if method in self.methods[:k]:
                raise ValueError(f"method {method} is listed more than once")
        for name, lam in (("lambda_low", lambda_low), ("lambda_high", lambda_high)):
            if not 0 < lam < math.inf:
                raise ValueError(f"{name}: scale factor must be positive and finite, got {lam}")
        if not 0 < svm_c < math.inf:
            raise ValueError(f"svm_c must be positive and finite, got {svm_c}")
        self.svm_c, self.lambda_low, self.lambda_high = svm_c, lambda_low, lambda_high
        for name, least, size in (("seed", 0, seed), ("n_datasets", 2, n_datasets),
                                  ("window_grid", 1, window_grid),
                                  ("threshold_grid", 1, threshold_grid)):
            setattr(self, name, whole_number(size, name, least))
        # the suite's one split-size rule is its generator config's
        self._base = GeneratorConfig(CLASS1_MEAN, seed=0, n_train=n_train, n_test=n_test)

    n_train = property(lambda self: self._base.n_train)
    n_test = property(lambda self: self._base.n_test)

    def base_generator_config(self) -> GeneratorConfig:
        return self._base

    def datasets(self) -> Iterator[Dataset]:
        """The suite's datasets in order, each dropped from the suite when yielded:
        a caller that lets go of each in turn holds one dataset's splits at a time."""
        suite = generate_benchmark_suite(self.n_datasets, self._base, self.seed)
        while suite:
            yield suite.pop(0)

    def scale_for(self, method: Method) -> float:
        if method in _LOW_SCALE:
            return self.lambda_low
        if method in _HIGH_SCALE:
            return self.lambda_high
        raise ValueError(f"{method} has no scale factor")


class ResultRow(Record):
    """One (dataset, method) cell; ``model`` is an SVM-scored method's classifier,
    None for the DCA, in ``run_experiment``'s table and in a table read from CSV.
    Rows compare without their models."""

    def __init__(self, dataset_index: int, centroid_distance: float, method: Method,
                 error_rate: float, tuned_parameter: float | None,
                 model: svm_mod.LinearModel | None = None) -> None:
        self.dataset_index, self.centroid_distance = dataset_index, centroid_distance
        self.method, self.error_rate, self.tuned_parameter = method, error_rate, tuned_parameter
        self.model = model

    def __eq__(self, other) -> bool:
        return type(other) is ResultRow and vars(self) | {"model": 0} == vars(other) | {"model": 0}


class DatasetInputs:
    """One dataset's inputs shared by its methods, each computed on first read:
    the model, each split's scores and the DCA signals of the test split."""

    def __init__(self, train: InstanceSeries, test: InstanceSeries, svm_c: float) -> None:
        self.train, self.test, self.svm_c = train, test, svm_c

    @cached_property
    def model(self) -> svm_mod.LinearModel:
        return svm_mod.train(self.train, C=self.svm_c)

    @cached_property
    def train_scores(self) -> svm_mod.ScoreSeries:
        return svm_mod.score_series(self.model, self.train)

    @cached_property
    def test_scores(self) -> svm_mod.ScoreSeries:
        return svm_mod.score_series(self.model, self.test)

    @cached_property
    def signals(self) -> dca.SignalSeries:
        return dca.preprocess(self.test)


def method_labels(method: Method, inputs: DatasetInputs, config: ExperimentConfig) -> tuple:
    """The method's test labels and its tuned object: the ``TunedFilter`` of
    SMOV and DMOV, the DCA's lifespan ladder, or None for LNC."""
    if method is Method.LNC:
        return windows.sign_labels(inputs.test_scores.scores), None
    if method is Method.SMOV:
        sizes = windows.default_size_grid(config.window_grid)
        tuned = windows.tune_static(inputs.train_scores, sizes)
    else:
        lam = config.scale_for(method)  # DMOV and DCA; it rejects any other method
        if method in _DCA:
            lifespans = dca.init_lifespans(inputs.signals, config.threshold_grid, lam)
            population = dca.DCAPopulation.from_lifespans(lifespans)
            return dca.run_dca(inputs.signals, population), lifespans
        grid = windows.make_threshold_grid(inputs.train_scores, config.threshold_grid, lam)
        tuned = windows.tune_dynamic(inputs.train_scores, grid)
    return windows.apply(tuned, inputs.test_scores), tuned


def _run_dataset(index: int, dataset: Dataset, config: ExperimentConfig,
                 keep_models: bool) -> dict[Method, ResultRow]:
    """Every configured method's row on one dataset; an SVM-scored row carries
    the model only if ``keep_models``, so otherwise it dies with the inputs."""
    inputs = DatasetInputs(dataset.train, dataset.test, config.svm_c)
    distance = centroid_distance(inputs.train, inputs.test)
    per_method = {}
    for method in config.methods:
        try:
            labels, tuned = method_labels(method, inputs, config)
        except Exception as exc:
            raise RuntimeError(f"method {method} failed on dataset {index}: {exc}") from exc
        error = float(np.count_nonzero(labels != inputs.test.labels) / len(inputs.test))
        parameter = tuned.parameter if isinstance(tuned, windows.TunedFilter) else None
        model = inputs.model if keep_models and method not in _DCA else None
        per_method[method] = ResultRow(index, distance, method, error, parameter, model)
    return per_method


_CSV_HEADER = "dataset_index,centroid_distance,method,error_rate,tuned_parameter"


def _parse_row(line: str) -> ResultRow:
    fields = line.rstrip("\n").split(",")
    if len(fields) != 5:
        raise ValueError(f"expected 5 comma-separated fields, got {len(fields)}")
    idx, dist, method, err, tuned = fields
    row = ResultRow(int(idx), float(dist), Method(method), float(err),
                    float(tuned) if tuned else None)
    if not math.isfinite(row.centroid_distance):
        raise ValueError(f"centroid distance {dist} is not finite")
    if not 0.0 <= row.error_rate <= 1.0:
        raise ValueError(f"error rate {err} is outside [0, 1]")
    return row


class ResultsTable(Record):
    """Per-dataset, per-method error rates, ordered by (dataset, method).
    Every dataset holds exactly one row per method."""

    def __init__(self, rows: tuple[ResultRow, ...]) -> None:
        self.rows = rows
        cells = Counter((r.dataset_index, r.method) for r in rows)
        for method, index in product(self.methods(), self.dataset_indexes()):
            if (count := cells[index, method]) != 1:
                raise ValueError(f"results need one {method} row for dataset {index}, got {count}")

    def methods(self) -> tuple[Method, ...]:
        return tuple(dict.fromkeys(row.method for row in self.rows))

    def dataset_indexes(self) -> tuple[int, ...]:
        return tuple(sorted({row.dataset_index for row in self.rows}))

    def errors(self, method: Method) -> np.ndarray:
        """Error rates in dataset order."""
        cells = sorted((r.dataset_index, r.error_rate) for r in self.rows if r.method == method)
        return np.array([error for _, error in cells])

    def distances(self) -> np.ndarray:
        by_index = {r.dataset_index: r.centroid_distance for r in self.rows}
        return np.array([by_index[i] for i in self.dataset_indexes()])

    def write_csv(self, path) -> Path:
        rows = (f"{r.dataset_index},{r.centroid_distance!r},{r.method},{r.error_rate!r},"
                + ("" if r.tuned_parameter is None else repr(float(r.tuned_parameter)))
                for r in self.rows)
        return write_lines(path, chain([_CSV_HEADER], rows))

    @classmethod
    def read_csv(cls, path) -> "ResultsTable":
        """Read a written table back, naming ``path:line`` of the first bad row."""
        rows = []
        distances = {}
        with Path(path).open(encoding="utf-8") as fh:  # "\r\n" reads as "\n"
            header = fh.readline().strip()
            if header != _CSV_HEADER:
                raise ValueError(f"unexpected header in {path}: {header!r}")
            for lineno, line in enumerate(fh, 2):
                try:
                    row = _parse_row(line)
                    first = distances.setdefault(row.dataset_index, row.centroid_distance)
                    if row.centroid_distance != first:
                        raise ValueError(f"centroid distance {row.centroid_distance!r} differs "
                                         f"from dataset {row.dataset_index}'s earlier {first!r}")
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                rows.append(row)
        return cls(tuple(rows))


def _run_suite(config: ExperimentConfig, keep_models: bool) -> tuple[ResultsTable, list]:
    details = [_run_dataset(k, ds, config, keep_models) for k, ds in enumerate(config.datasets())]
    rows = tuple(row for per_method in details for row in per_method.values())
    return ResultsTable(rows), details


def run_experiment_detailed(
    config: ExperimentConfig,
) -> tuple[ResultsTable, list[dict[Method, ResultRow]]]:
    """Run the whole suite, returning the table and its rows per dataset;
    only these rows keep each SVM-scored method's model."""
    return _run_suite(config, keep_models=True)


def run_experiment(config: ExperimentConfig) -> ResultsTable:
    """Fill every (dataset, method) cell of the benchmark.  No row keeps a
    model, so each model is freed once its dataset's rows exist."""
    return _run_suite(config, keep_models=False)[0]


# ---------------------------------------------------------------------------
# Statistical battery
# ---------------------------------------------------------------------------


class PairComparison(NamedTuple):
    pool: str
    a: Method
    b: Method
    report: TestReport | None
    note: str = ""


class OrderingLink(NamedTuple):
    better: Method
    worse: Method
    p_value: float | None
    significant: bool


class AnalysisReport(NamedTuple):
    significance: float
    normality: tuple[tuple[Method, TestReport | None], ...]
    normality_notes: tuple[str, ...]  # why each untested row has no report
    two_sided: tuple[PairComparison, ...]
    one_sided: tuple[PairComparison, ...]
    mean_errors: tuple[tuple[Method, float], ...]
    ordering: tuple[Method, ...]
    links: tuple[OrderingLink, ...]

    def ordering_established(self) -> bool:
        return bool(self.links) and all(link.significant for link in self.links)


def analyze(results: ResultsTable, significance: float = 0.05) -> AnalysisReport:
    """Run the normality screen plus the two-sided and one-sided batteries."""
    methods = results.methods()
    distances = results.distances()
    pools = {
        "all": np.ones(distances.size, dtype=bool),
        "nonseparable": distances <= NONSEPARABLE_MAX_DISTANCE,
    }
    errors = {m: results.errors(m) for m in methods}

    screened = [normality_report(errors[m]) for m in methods]
    two_sided = []
    one_sided = []
    candidates = [m for m in ORDERING_CANDIDATES if m in methods]
    for pool in POOLS:
        mask = pools[pool]
        if mask.sum() < 2:
            continue
        for a, b in combinations(methods, 2):
            report, note = paired_report(errors[a][mask], errors[b][mask], "two-sided")
            two_sided.append(PairComparison(pool, a, b, report, note))
        for a, b in combinations(candidates, 2):
            mean_a = float(errors[a][mask].mean())
            mean_b = float(errors[b][mask].mean())
            better, worse = (a, b) if mean_a <= mean_b else (b, a)
            report, note = paired_report(errors[better][mask], errors[worse][mask], "a-less")
            one_sided.append(PairComparison(pool, better, worse, report, note))

    mean_errors = tuple((m, float(errors[m].mean())) for m in methods)
    ordering = tuple(sorted(candidates, key=lambda m: float(errors[m].mean())))
    pooled = {(c.a, c.b): c.report for c in one_sided if c.pool == "all"}
    links = []
    for better, worse in zip(ordering, ordering[1:]):
        report = pooled.get((better, worse))
        p = report.p_value if report is not None else None
        links.append(OrderingLink(better, worse, p, p is not None and p < significance))
    return AnalysisReport(
        significance=significance,
        normality=tuple((m, rep) for m, (rep, _) in zip(methods, screened)),
        normality_notes=tuple(note for _, note in screened),
        two_sided=tuple(two_sided),
        one_sided=tuple(one_sided),
        mean_errors=mean_errors,
        ordering=ordering,
        links=tuple(links),
    )


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

_REPORT_HEADER = "section,pool,a,b,test,statistic,p_value,alternative,n_effective,note"


def _report_row(section, pool, a, b, report: TestReport | None, note: str) -> str:
    if report is None:
        return f"{section},{pool},{a},{b},,,,,,{note}"
    return (
        f"{section},{pool},{a},{b},{report.test},{report.statistic!r},"
        f"{report.p_value!r},{report.alternative},{report.n_effective},{note}"
    )


def write_stats_report(report: AnalysisReport, path) -> Path:
    lines = [_REPORT_HEADER]
    for (method, rep), note in zip(report.normality, report.normality_notes):
        lines.append(_report_row("normality", "all", method, "", rep, note))
    for comp in report.two_sided:
        lines.append(_report_row("two-sided", comp.pool, comp.a, comp.b, comp.report, comp.note))
    for comp in report.one_sided:
        lines.append(_report_row("one-sided", comp.pool, comp.a, comp.b, comp.report, comp.note))
    return write_lines(path, lines)


def write_summary(report: AnalysisReport, config: ExperimentConfig, path) -> Path:
    lines = [
        "benchmark summary",
        "=================",
        f"datasets: {config.n_datasets} (suite seed {config.seed})",
        "methods: " + ", ".join(str(m) for m in config.methods),
        "mean test error: "
        + ", ".join(f"{m}={err:.4f}" for m, err in report.mean_errors),
        "ascending error among compared parameterizations: "
        + " < ".join(str(m) for m in report.ordering),
    ]
    for link in report.links:
        p_text = "n/a (degenerate)" if link.p_value is None else f"p={link.p_value!r}"
        verdict = "significant" if link.significant else "not significant"
        lines.append(
            f"one-sided {link.better} < {link.worse}: {p_text} ({verdict} at "
            f"{report.significance})"
        )
    if report.ordering_established():
        lines.append(
            f"ordering established at {report.significance}: best method is "
            f"{report.ordering[0]}"
        )
    else:
        lines.append(f"ordering NOT fully established at {report.significance}")
    return write_lines(path, lines)


def emit_outputs(
    results: ResultsTable,
    report: AnalysisReport,
    config: ExperimentConfig,
    out_dir,
) -> dict[str, Path]:
    """Write error_rates.csv, stats_report.csv, gain_sweeps.csv and summary.txt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        "error_rates": results.write_csv(out_dir / "error_rates.csv"),
        "stats_report": write_stats_report(report, out_dir / "stats_report.csv"),
        "gain_sweeps": freq.write_gain_sweeps(out_dir / "gain_sweeps.csv"),
        "summary": write_summary(report, config, out_dir / "summary.txt"),
    }
