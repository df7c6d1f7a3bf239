"""Static and dynamic moving-window filters over a score series.

Both filters partition the time axis into disjoint, contiguous windows that
cover every index, then relabel each instance with the sign of the summed
scores of its window.  The static filter uses a fixed window width; the
dynamic filter grows each window until the accumulated score magnitude would
exceed a budget, so windows are narrow where the classifier is confident and
wide where it is not.

A window always contains at least one index: if a single score's magnitude
already exceeds the dynamic budget, that index forms a singleton window.
Consecutive windows share no endpoints; the next window starts one index
after the previous one ends, which keeps every label in {-1, +1}.  Dynamic
windows come from ``budget_walk``, which ``dca`` shares: a window's end depends
only on its start, so each budget's windows are a chase along a per-start
successor table.  In the DCA a window closes on reaching its budget instead of
staying within it.

Tuning is exhaustive minimization of the mean squared label error over a
parameter grid; ties go to the smallest parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

from .svm import ScoreSeries


class DegenerateGridError(ValueError):
    """All score magnitudes are zero, so no positive threshold grid exists."""


def _sgn_array(values: np.ndarray) -> np.ndarray:
    """Signs with the convention sgn(0) = +1."""
    return np.where(np.asarray(values) >= 0, 1, -1)


@dataclass(frozen=True)
class WindowSizeGrid:
    """A set of candidate window widths, stored sorted and deduplicated."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        cleaned = tuple(sorted({int(s) for s in self.sizes}))
        if not cleaned:
            raise ValueError("window-size grid is empty")
        if cleaned[0] < 1:
            raise ValueError(f"window sizes must be >= 1, got {cleaned[0]}")
        object.__setattr__(self, "sizes", cleaned)

    @property
    def m(self) -> int:
        return len(self.sizes)


def default_size_grid(m: int = 100) -> WindowSizeGrid:
    """The canonical width grid {1, 2, ..., m}."""
    return WindowSizeGrid(tuple(range(1, m + 1)))


@dataclass(frozen=True, eq=False)
class ThresholdGrid:
    """A strictly increasing set of dynamic-window budgets and its scale factor."""

    thresholds: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        thr = np.asarray(self.thresholds, dtype=float)
        if thr.ndim != 1 or thr.size == 0:
            raise ValueError("threshold grid must be a nonempty 1-d array")
        if not np.all(thr > 0):
            raise ValueError("thresholds must be positive")
        if not np.all(np.diff(thr) > 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", thr)

    @property
    def m(self) -> int:
        return self.thresholds.size


@dataclass(frozen=True)
class TunedFilter:
    """Result of grid tuning: the filter kind, its parameter and training error."""

    kind: Literal["static", "dynamic"]
    parameter: float
    training_error: float


def static_label(series: ScoreSeries, alpha: int) -> np.ndarray:
    """Label every instance with the sign of its fixed-width window's score sum."""
    n = len(series)
    if n == 0:
        raise ValueError("score series is empty")
    if alpha < 1:
        raise ValueError(f"window size must be >= 1, got {alpha}")
    starts = np.arange(0, n, alpha)
    sums = np.add.reduceat(series.scores, starts)
    lengths = np.diff(np.append(starts, n))
    return np.repeat(_sgn_array(sums), lengths)


def _positive_counts(series: ScoreSeries) -> np.ndarray:
    """Prefix counts of positive truths; the tuners' wrong-label counts need +-1 truths."""
    if len(series) == 0 or not np.all(np.abs(series.truths) == 1):
        raise ValueError("score series must be nonempty, with truth labels -1 or +1")
    return np.concatenate([[0], np.cumsum(series.truths > 0)])


def _wrong_labels(sums: np.ndarray, starts: np.ndarray, stops: np.ndarray, cum_pos) -> int:
    """Instances whose window-sum sign differs from their truth: a window labeled
    +1 gets its negatives wrong, one labeled -1 its positives."""
    pos = cum_pos[stops] - cum_pos[starts]
    return np.where(sums >= 0, stops - starts - pos, pos).sum()


def tune_static(series: ScoreSeries, grid: WindowSizeGrid) -> TunedFilter:
    """Width in the grid minimizing training error; ties go to the smallest.
    Wrong labels are counted per window, as in ``tune_dynamic``; the window
    sums stay ``reduceat`` sums, which ``static_label`` signs."""
    cum_pos = _positive_counts(series)
    n = len(series)
    wrong = np.empty(grid.m, dtype=np.int64)
    for k, alpha in enumerate(grid.sizes):
        starts = np.arange(0, n, alpha)
        stops = np.minimum(starts + alpha, n)
        wrong[k] = _wrong_labels(np.add.reduceat(series.scores, starts), starts, stops, cum_pos)
    errors = (4 * wrong) / n
    best = int(np.argmin(errors))
    return TunedFilter("static", float(grid.sizes[best]), float(errors[best]))


def make_threshold_grid(series: ScoreSeries, m: int, lam: float) -> ThresholdGrid:
    """Budgets b_l = max|score| * (l/m) * lam for l = 1..m."""
    if len(series) == 0:
        raise ValueError("score series is empty")
    if m < 1:
        raise ValueError(f"grid cardinality must be >= 1, got {m}")
    if not lam > 0:
        raise ValueError(f"scale factor must be > 0, got {lam}")
    peak = float(np.max(np.abs(series.scores)))
    if peak == 0.0:
        raise DegenerateGridError("all scores are zero; threshold grid would be degenerate")
    levels = np.arange(1, m + 1, dtype=float) / m
    return ThresholdGrid(peak * levels * lam, float(lam))


def budget_walk(
    cum_mag: np.ndarray, budgets: Iterable[float], side: Literal["left", "right"]
) -> Iterator[np.ndarray]:
    """Yield each budget's window edges ``e`` over prefix sums of nonnegative
    magnitudes, one lane per budget: ``e[0] = 0``, ``e[-1] = n``, and window
    ``j`` is the 0-based slice ``e[j]:e[j + 1]``.

    The window from ``start`` ends where ``cum_mag[start - 1] + budget`` (0.0
    before the first index) is met: at the last index at or below it for
    ``side="right"``, the first reaching it for ``side="left"``.  That end
    depends on the start alone, so one ``searchsorted`` over all starts gives
    every start's successor, clipped to ``[start + 1, n]``; the lane is the
    chase along successors from 0, one list step per window.  Lanes are
    independent, so budgets may come in any order."""
    n = cum_mag.shape[0]
    before = np.concatenate([[0.0], cum_mag[:-1]])
    floor = np.arange(1, n + 1)
    for budget in budgets:
        succ = cum_mag.searchsorted(before + budget, side)
        succ += side == "left"
        np.maximum(succ, floor, out=succ)
        np.minimum(succ, n, out=succ)
        step = memoryview(succ)  # Python ints, read without converting the table
        start, edges = 0, [0]
        while start < n:
            start = step[start]
            edges.append(start)
        yield np.fromiter(edges, np.intp, len(edges))


def dynamic_label(series: ScoreSeries, beta: float) -> np.ndarray:
    """Label every instance with the sign of its dynamic window's score sum."""
    if len(series) == 0:
        raise ValueError("score series is empty")
    if not beta > 0:
        raise ValueError(f"threshold must be > 0, got {beta}")
    edges = next(budget_walk(np.cumsum(np.abs(series.scores)), [float(beta)], "right"))
    cum = np.concatenate([[0.0], np.cumsum(series.scores)])
    return np.repeat(_sgn_array(np.diff(cum[edges])), np.diff(edges))


def tune_dynamic(series: ScoreSeries, grid: ThresholdGrid) -> TunedFilter:
    """Budget in the grid minimizing training error; ties go to the smallest.
    With every budget a lane, wrong labels are counted per window from prefix
    sums; ``4 * wrong / n`` is the mean squared error of ``dynamic_label``."""
    cum_pos = _positive_counts(series)
    cum = np.concatenate([[0.0], np.cumsum(series.scores)])
    wrong = np.empty(grid.m, dtype=np.int64)
    walk = budget_walk(np.cumsum(np.abs(series.scores)), grid.thresholds, "right")
    for lane, edges in enumerate(walk):
        starts, stops = edges[:-1], edges[1:]
        wrong[lane] = _wrong_labels(cum[stops] - cum[starts], starts, stops, cum_pos)
    errors = (4 * wrong) / len(series)
    best = int(np.argmin(errors))
    return TunedFilter("dynamic", float(grid.thresholds[best]), float(errors[best]))


def apply(tuned: TunedFilter, series: ScoreSeries) -> np.ndarray:
    """Run a tuned filter on a (typically held-out) score series."""
    if tuned.kind == "static":
        return static_label(series, int(tuned.parameter))
    if tuned.kind == "dynamic":
        return dynamic_label(series, tuned.parameter)
    raise ValueError(f"unknown filter kind {tuned.kind!r}")
