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

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from pathlib import Path

import numpy as np

from . import dca, freq, windows
from . import svm as svm_mod
from .datagen import Dataset, GeneratorConfig, centroid_distance, generate_benchmark_suite
from .stats import (
    DegenerateSampleError,
    PairedSample,
    TestReport,
    choose_test,
    paired_t_test,
    shapiro_wilk,
    wilcoxon_signed_rank,
)

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

_SVM_METHODS = {Method.LNC, Method.SMOV, Method.DMOV1, Method.DMOV2}
_LOW_SCALE = {Method.DMOV1, Method.DCA1}
_HIGH_SCALE = {Method.DMOV2, Method.DCA2}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one full benchmark run."""

    seed: int
    n_datasets: int = 100
    methods: tuple[Method, ...] = ALL_METHODS
    svm_c: float = 1.0
    window_grid: int = 100
    threshold_grid: int = 100
    lambda_low: float = 1.0
    lambda_high: float = 100.0
    n_train: int = 1000
    n_test: int = 1000
    n_features: int = 2
    class1_mean: float = 0.2
    stddev: float = 0.1
    significance: float = 0.05

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("method list is empty")
        if self.n_datasets < 2:
            raise ValueError(f"n_datasets must be >= 2, got {self.n_datasets}")

    def base_generator_config(self) -> GeneratorConfig:
        return GeneratorConfig(
            class2_mean=self.class1_mean,
            seed=0,
            n_train=self.n_train,
            n_test=self.n_test,
            n_features=self.n_features,
            class1_mean=self.class1_mean,
            stddev=self.stddev,
        )

    def scale_for(self, method: Method) -> float:
        if method in _LOW_SCALE:
            return self.lambda_low
        if method in _HIGH_SCALE:
            return self.lambda_high
        raise ValueError(f"{method} has no scale factor")


@dataclass(frozen=True, eq=False)
class MethodResult:
    """Error rate plus the artifacts behind it (for diagnostics and tests)."""

    error_rate: float
    tuned_parameter: float | None = None
    model: svm_mod.LinearModel | None = None


class _DatasetContext:
    """Lazily shares the trained model and score series across methods."""

    def __init__(self, dataset: Dataset, config: ExperimentConfig) -> None:
        self.dataset = dataset
        self.config = config
        self._model = None
        self._train_scores = None
        self._test_scores = None
        self._signals = None

    def model(self) -> svm_mod.LinearModel:
        if self._model is None:
            self._model = svm_mod.train(self.dataset.train, C=self.config.svm_c)
        return self._model

    def train_scores(self) -> svm_mod.ScoreSeries:
        if self._train_scores is None:
            self._train_scores = svm_mod.score_series(self.model(), self.dataset.train)
        return self._train_scores

    def test_scores(self) -> svm_mod.ScoreSeries:
        if self._test_scores is None:
            self._test_scores = svm_mod.score_series(self.model(), self.dataset.test)
        return self._test_scores

    def signals(self) -> dca.SignalSeries:
        if self._signals is None:
            self._signals = dca.preprocess(self.dataset.test)
        return self._signals


def _error_rate(labels: np.ndarray, truths: np.ndarray) -> float:
    return float(np.mean(np.asarray(labels) != np.asarray(truths)))


def _run_single(method: Method, ctx: _DatasetContext) -> MethodResult:
    cfg = ctx.config
    truths = ctx.dataset.test.labels
    if method is Method.LNC:
        labels = np.where(ctx.test_scores().scores >= 0, 1, -1)
        return MethodResult(_error_rate(labels, truths), None, ctx.model())
    if method is Method.SMOV:
        tuned = windows.tune_static(ctx.train_scores(), windows.default_size_grid(cfg.window_grid))
        labels = windows.apply(tuned, ctx.test_scores())
        return MethodResult(_error_rate(labels, truths), tuned.parameter, ctx.model())
    if method in (Method.DMOV1, Method.DMOV2):
        grid = windows.make_threshold_grid(
            ctx.train_scores(), cfg.threshold_grid, cfg.scale_for(method)
        )
        tuned = windows.tune_dynamic(ctx.train_scores(), grid)
        labels = windows.apply(tuned, ctx.test_scores())
        return MethodResult(_error_rate(labels, truths), tuned.parameter, ctx.model())
    if method in (Method.DCA1, Method.DCA2):
        signals = ctx.signals()
        lifespans = dca.init_lifespans(signals, cfg.threshold_grid, cfg.scale_for(method))
        population = dca.DCAPopulation.from_lifespans(lifespans)
        labels = dca.run_dca(signals, population)
        return MethodResult(_error_rate(labels, truths), None, None)
    raise ValueError(f"unknown method {method}")


@dataclass(frozen=True)
class ResultRow:
    dataset_index: int
    centroid_distance: float
    method: Method
    error_rate: float
    tuned_parameter: float | None


@dataclass(frozen=True)
class ResultsTable:
    """Per-dataset, per-method error rates, ordered by (dataset, method)."""

    rows: tuple[ResultRow, ...]

    def methods(self) -> tuple[Method, ...]:
        seen: list[Method] = []
        for row in self.rows:
            if row.method not in seen:
                seen.append(row.method)
        return tuple(seen)

    def dataset_indexes(self) -> tuple[int, ...]:
        return tuple(sorted({row.dataset_index for row in self.rows}))

    def errors(self, method: Method) -> np.ndarray:
        """Error rates in dataset order; every dataset needs exactly one row."""
        rows = sorted((r.dataset_index, r.error_rate) for r in self.rows if r.method == method)
        found = [index for index, _ in rows]
        for index in self.dataset_indexes():
            if (count := found.count(index)) != 1:
                raise ValueError(f"results need one {method} row for dataset {index}, got {count}")
        return np.array([error for _, error in rows])

    def distances(self) -> np.ndarray:
        by_index = {r.dataset_index: r.centroid_distance for r in self.rows}
        return np.array([by_index[i] for i in self.dataset_indexes()])

    def write_csv(self, path) -> Path:
        path = Path(path)
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write("dataset_index,centroid_distance,method,error_rate,tuned_parameter\n")
            for r in self.rows:
                tuned = "" if r.tuned_parameter is None else repr(float(r.tuned_parameter))
                fh.write(
                    f"{r.dataset_index},{r.centroid_distance!r},{r.method},"
                    f"{r.error_rate!r},{tuned}\n"
                )
        return path

    @classmethod
    def read_csv(cls, path) -> "ResultsTable":
        rows = []
        with Path(path).open(newline="", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "dataset_index,centroid_distance,method,error_rate,tuned_parameter":
                raise ValueError(f"unexpected header in {path}: {header!r}")
            for line in fh:
                idx, dist, method, err, tuned = line.rstrip("\n").split(",")
                rows.append(
                    ResultRow(
                        dataset_index=int(idx),
                        centroid_distance=float(dist),
                        method=Method(method),
                        error_rate=float(err),
                        tuned_parameter=float(tuned) if tuned else None,
                    )
                )
        return cls(tuple(rows))


def run_experiment_detailed(
    config: ExperimentConfig,
) -> tuple[ResultsTable, list[dict[Method, MethodResult]]]:
    """Run the whole suite, returning the table and per-dataset artifacts."""
    suite = generate_benchmark_suite(
        config.n_datasets, config.base_generator_config(), config.seed
    )
    rows: list[ResultRow] = []
    details: list[dict[Method, MethodResult]] = []
    for index, dataset in enumerate(suite):
        distance = centroid_distance(dataset)
        per_method: dict[Method, MethodResult] = {}
        ctx = _DatasetContext(dataset, config)
        for method in config.methods:
            try:
                result = _run_single(method, ctx)
            except Exception as exc:
                raise RuntimeError(
                    f"method {method} failed on dataset {index}: {exc}"
                ) from exc
            per_method[method] = result
            rows.append(
                ResultRow(index, distance, method, result.error_rate, result.tuned_parameter)
            )
        details.append(per_method)
    return ResultsTable(tuple(rows)), details


def run_experiment(config: ExperimentConfig) -> ResultsTable:
    """Fill every (dataset, method) cell of the benchmark."""
    return run_experiment_detailed(config)[0]


# ---------------------------------------------------------------------------
# Statistical battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairComparison:
    pool: str
    a: Method
    b: Method
    report: TestReport | None
    note: str = ""


@dataclass(frozen=True)
class OrderingLink:
    better: Method
    worse: Method
    p_value: float | None
    significant: bool


@dataclass(frozen=True)
class AnalysisReport:
    significance: float
    normality: tuple[tuple[Method, TestReport | None], ...]
    two_sided: tuple[PairComparison, ...]
    one_sided: tuple[PairComparison, ...]
    mean_errors: tuple[tuple[Method, float], ...]
    ordering: tuple[Method, ...]
    links: tuple[OrderingLink, ...]

    def ordering_established(self) -> bool:
        return bool(self.links) and all(link.significant for link in self.links)


def _paired_report(a_err, b_err, alternative: str) -> tuple[TestReport | None, str]:
    diffs = np.asarray(a_err) - np.asarray(b_err)
    if not np.any(diffs != 0):
        return None, "degenerate: all paired differences are zero"
    try:
        selection = choose_test(a_err, b_err)
    except ValueError:
        selection = None
    sample = PairedSample(np.asarray(a_err), np.asarray(b_err))
    if selection is not None and selection.parametric:
        try:
            return paired_t_test(sample, alternative), ""
        except DegenerateSampleError as exc:
            return None, f"degenerate: {exc}"
    return wilcoxon_signed_rank(sample, alternative), ""


def analyze(results: ResultsTable, significance: float = 0.05) -> AnalysisReport:
    """Run the normality screen plus the two-sided and one-sided batteries."""
    methods = results.methods()
    distances = results.distances()
    pools = {
        "all": np.ones(distances.size, dtype=bool),
        "nonseparable": distances <= NONSEPARABLE_MAX_DISTANCE,
    }
    errors = {m: results.errors(m) for m in methods}

    normality = []
    for method in methods:
        try:
            normality.append((method, shapiro_wilk(errors[method])))
        except (ValueError, DegenerateSampleError):
            normality.append((method, None))

    two_sided = []
    one_sided = []
    candidates = [m for m in ORDERING_CANDIDATES if m in methods]
    for pool in POOLS:
        mask = pools[pool]
        if mask.sum() < 2:
            continue
        for a, b in combinations(methods, 2):
            report, note = _paired_report(errors[a][mask], errors[b][mask], "two-sided")
            two_sided.append(PairComparison(pool, a, b, report, note))
        for a, b in combinations(candidates, 2):
            mean_a = float(errors[a][mask].mean())
            mean_b = float(errors[b][mask].mean())
            better, worse = (a, b) if mean_a <= mean_b else (b, a)
            report, note = _paired_report(errors[better][mask], errors[worse][mask], "a-less")
            one_sided.append(PairComparison(pool, better, worse, report, note))

    mean_errors = tuple((m, float(errors[m].mean())) for m in methods)
    ordering = tuple(sorted(candidates, key=lambda m: float(errors[m].mean())))
    links = []
    for better, worse in zip(ordering, ordering[1:]):
        found = next(
            (
                c
                for c in one_sided
                if c.pool == "all" and c.a == better and c.b == worse
            ),
            None,
        )
        p = found.report.p_value if found and found.report else None
        links.append(OrderingLink(better, worse, p, p is not None and p < significance))
    return AnalysisReport(
        significance=significance,
        normality=tuple(normality),
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
    path = Path(path)
    lines = [_REPORT_HEADER]
    for method, rep in report.normality:
        note = "" if rep is not None else "degenerate: zero variance"
        lines.append(_report_row("normality", "all", method, "", rep, note))
    for comp in report.two_sided:
        lines.append(_report_row("two-sided", comp.pool, comp.a, comp.b, comp.report, comp.note))
    for comp in report.one_sided:
        lines.append(_report_row("one-sided", comp.pool, comp.a, comp.b, comp.report, comp.note))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_summary(report: AnalysisReport, config: ExperimentConfig, path) -> Path:
    path = Path(path)
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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def emit_outputs(
    results: ResultsTable,
    report: AnalysisReport,
    config: ExperimentConfig,
    out_dir,
) -> dict[str, Path]:
    """Write error_rates.csv, stats_report.csv, gain_sweeps.csv and summary.txt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "error_rates": results.write_csv(out_dir / "error_rates.csv"),
        "stats_report": write_stats_report(report, out_dir / "stats_report.csv"),
        "gain_sweeps": freq.write_gain_sweeps(out_dir / "gain_sweeps.csv"),
        "summary": write_summary(report, config, out_dir / "summary.txt"),
    }
    return paths
