"""Static and dynamic moving-window filters over a score series.

Both filters partition the time axis into disjoint, contiguous windows that
cover every index, then relabel each instance with the sign of the summed
scores of its window.  The static filter uses a fixed window width; the
dynamic filter grows each window until the accumulated score magnitude would
exceed a budget, so windows are narrow where the classifier is confident and
wide where it is not.

A partition (a lane) is an array of edges ``e`` from ``e[0] = 0`` to
``e[-1] = n``: window ``j`` is the slice ``e[j]:e[j + 1]``, at least one index
long, and its sum is a difference of ``prefix_sums``.  Lanes travel in batches
of about n edges: their edges concatenated, and where each lane starts.
Labels, tuning and the DCA's votes read a batch's window sums with one gather,
skipping the pair that straddles two lanes.  Static edges are every
``alpha``-th index.  Dynamic edges come from ``budget_walk``, which ``dca``
shares: a window's end depends only on its start, so each budget's windows
are a path from index 0.  A budget expecting many windows walks a successor
table of all starts by pointer doubling, about log2(windows) array steps, as a
batch of its own; one expecting few bisects the prefix sums window by window
and shares a batch, so a coarse budget costs its windows, not the series
length.  In the DCA a window closes on reaching its budget, not within it.

Tuning is exhaustive minimization of the mean squared label error over a
parameter grid, one lane of edges per value; ties go to the smallest.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

from .svm import ScoreSeries


class DegenerateGridError(ValueError):
    """All score magnitudes are zero, so no positive threshold grid exists."""


def sign_labels(values) -> np.ndarray:
    """Labels from signs, with the convention sgn(0) = +1."""
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


def default_size_grid(m: int) -> WindowSizeGrid:
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


@dataclass(frozen=True)
class TunedFilter:
    """Result of grid tuning: the filter kind, its parameter and training error."""

    kind: Literal["static", "dynamic"]
    parameter: float
    training_error: float


def prefix_sums(values) -> np.ndarray:
    """0.0, then the running sums ``p``: slice ``i:j`` sums to ``p[j] - p[i]``."""
    return np.concatenate([[0.0], np.cumsum(values)])


def _static_batches(n: int, sizes) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The lanes ``0, a, 2a, ...`` (clipped to n) of the widths in array
    ``sizes``, in batches of about n edges: each multiple of n opens one."""
    counts = (n - 1) // sizes + 2
    cuts = np.flatnonzero(np.diff((np.cumsum(counts) - counts) // n)) + 1
    for alphas, k in zip(np.split(sizes, cuts), np.split(counts, cuts)):
        starts = np.cumsum(k) - k
        steps = np.arange(starts[-1] + k[-1]) - np.repeat(starts, k)
        yield np.minimum(np.repeat(alphas, k) * steps, n), starts


def _window_labels(series: ScoreSeries, edges: np.ndarray) -> np.ndarray:
    c = prefix_sums(series.scores)[edges]
    return np.repeat(sign_labels(c[1:] - c[:-1]), edges[1:] - edges[:-1])


def static_label(series: ScoreSeries, alpha: int) -> np.ndarray:
    """Label every instance with the sign of its fixed-width window's score sum."""
    n = len(series)
    if n == 0:
        raise ValueError("score series is empty")
    if alpha < 1:
        raise ValueError(f"window size must be >= 1, got {alpha}")
    return _window_labels(series, next(_static_batches(n, np.array([alpha])))[0])


def _lane_errors(series: ScoreSeries, lanes: int, batches: Iterable[tuple]) -> np.ndarray:
    """Each lane's mean squared label error ``4 * wrong / n``, batches taken
    in lane order one at a time.  A -1 window gets its positives wrong, a +1
    window its negatives: all positives, plus per +1 window its width less twice
    its positives, a difference of ``q``; integer terms, so sums are exact."""
    if len(series) == 0 or not np.all(np.abs(series.truths) == 1):
        raise ValueError("score series must be nonempty, with truth labels -1 or +1")
    cum = prefix_sums(series.scores)
    cum_pos = prefix_sums(series.truths > 0)
    q = np.arange(len(cum)) - 2 * cum_pos
    wrong, lane = np.full(lanes, cum_pos[-1]), 0
    for edges, starts in batches:
        c, g = cum[edges], q[edges]
        terms = (g[1:] - g[:-1]) * (c[1:] - c[:-1] >= 0)
        terms[starts[1:] - 1] = 0.0  # the pair from one lane's end to the next one's start
        wrong[lane : lane + len(starts)] += np.add.reduceat(terms, starts)
        lane += len(starts)
    return (4 * wrong) / len(series)


def _tune(kind, series: ScoreSeries, params, batches: Iterable[tuple]) -> TunedFilter:
    """The parameter whose lane mislabels fewest instances; ties go to the first."""
    errors = _lane_errors(series, len(params), batches)
    best = int(np.argmin(errors))
    return TunedFilter(kind, float(params[best]), float(errors[best]))


def tune_static(series: ScoreSeries, grid: WindowSizeGrid) -> TunedFilter:
    """Width in the grid minimizing training error; ties go to the smallest."""
    return _tune("static", series, grid.sizes, _static_batches(len(series), np.array(grid.sizes)))


def budget_ladder(peak: float, m: int, lam: float) -> np.ndarray:
    """Budgets peak * (l/m) * lam for l = 1..m: the dynamic window's threshold
    grid and the DCA's lifespans.  Each caller rejects its own zero peak."""
    if m < 1:
        raise ValueError(f"ladder size must be >= 1, got {m}")
    if not lam > 0:
        raise ValueError(f"scale factor must be > 0, got {lam}")
    return peak * (np.arange(1, m + 1, dtype=float) / m) * lam


def make_threshold_grid(series: ScoreSeries, m: int, lam: float) -> ThresholdGrid:
    """Budgets b_l = max|score| * (l/m) * lam for l = 1..m."""
    if len(series) == 0:
        raise ValueError("score series is empty")
    peak = float(np.max(np.abs(series.scores)))
    budgets = budget_ladder(peak, m, lam)
    if peak == 0.0:
        raise DegenerateGridError("all scores are zero; threshold grid would be degenerate")
    return ThresholdGrid(budgets, float(lam))


# A batched bisect step costs about as much as 8 starts of a doubling lane, with
# each lane's consumer (0.3-0.4 us per window, 0.04-0.06 us per start; n = 1,000, 8,000).
_BISECT_STEP_COST = 8


def budget_walk(
    cum_mag: np.ndarray, budgets: Iterable[float], side: Literal["left", "right"]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each budget's window edges over prefix sums of nonnegative
    magnitudes: batches of lanes, in budget order.

    The window from ``start`` ends where ``cum_mag[start - 1] + budget`` (0.0
    before the first index) is met: at the last index at or below it for
    ``side="right"``, the first reaching it for ``side="left"``, clipped to
    ``[start + 1, n]``.  That end depends on the start alone, so a lane is the
    path from 0 through it, found in one of two ways chosen by the lane's
    expected window count ``cum_mag[-1] / budget``:

    * many windows: ``searchsorted`` gives the successor table ``s`` of every
      start, and of start n, whose floor n + 1 clips to n; ``s`` jumping m
      windows maps the first m edges to the next m, then ``s[s]`` jumps 2m.
      The lane is a batch of its own;
    * few windows (under n / ``_BISECT_STEP_COST``): each step bisects the
      prefix sums from ``start`` alone, so the lane costs its windows, not n.
      Such lanes share a batch, yielded once it holds n edges or a table lane is next.

    Both compute the same float target and clip, so they give the same edges.
    Lanes are independent, so budgets may come in any order."""
    n = cum_mag.shape[0]
    if n == 0:
        raise ValueError("prefix sums are empty: a budget walk needs at least one index")
    before = np.concatenate([[0.0], cum_mag[:-1], [np.inf]])
    floor = np.arange(1, n + 2)
    total = float(cum_mag[-1])
    cum = pre = None
    edges, starts = [], []  # the sparse lanes' batch
    for budget in budgets:
        budget = float(budget)
        sparse = total * _BISECT_STEP_COST < n * budget
        if edges and (len(edges) >= n or not sparse):  # lists freed before the consumer runs
            batch, edges, starts = (np.array(edges, np.intp), np.array(starts, np.intp)), [], []
            yield batch
        if sparse:
            if cum is None:
                cum, pre = cum_mag.tolist(), before.tolist()
            start = 0
            starts.append(len(edges))
            edges.append(0)
            # bisect's bounds carry the clip to [start + 1, n]
            if side == "right":
                while start < n:
                    start = bisect_right(cum, pre[start] + budget, start + 1, n)
                    edges.append(start)
            else:
                while start < n:
                    start = bisect_left(cum, pre[start] + budget, start, n - 1) + 1
                    edges.append(start)
        else:
            succ = cum_mag.searchsorted(before + budget, side)
            succ += side == "left"
            np.maximum(succ, floor, out=succ)
            np.minimum(succ, n, out=succ)
            # m <= windows <= n, so indices stay in range; clip mode skips take's copy of out
            path, jump, m = np.zeros(2 * n, np.intp), np.empty_like(succ), 1
            while succ.take(path[:m], out=path[m : 2 * m], mode="clip")[-1] < n:
                succ, jump, m = succ.take(succ, out=jump, mode="clip"), succ, 2 * m
            # rises to n, then stays
            yield path[: path[: 2 * m].searchsorted(n) + 1], np.zeros(1, np.intp)
    if edges:
        batch, edges, starts = (np.array(edges, np.intp), np.array(starts, np.intp)), [], []
        yield batch


def dynamic_label(series: ScoreSeries, beta: float) -> np.ndarray:
    """Label every instance with the sign of its dynamic window's score sum."""
    if len(series) == 0:
        raise ValueError("score series is empty")
    if not beta > 0:
        raise ValueError(f"threshold must be > 0, got {beta}")
    edges, _ = next(budget_walk(np.cumsum(np.abs(series.scores)), [float(beta)], "right"))
    return _window_labels(series, edges)


def tune_dynamic(series: ScoreSeries, grid: ThresholdGrid) -> TunedFilter:
    """Budget in the grid minimizing training error; ties go to the smallest."""
    walk = budget_walk(np.cumsum(np.abs(series.scores)), grid.thresholds, "right")
    return _tune("dynamic", series, grid.thresholds, walk)


def apply(tuned: TunedFilter, series: ScoreSeries) -> np.ndarray:
    """Run a tuned filter on a (typically held-out) score series."""
    if tuned.kind == "static":
        return static_label(series, int(tuned.parameter))
    if tuned.kind == "dynamic":
        return dynamic_label(series, tuned.parameter)
    raise ValueError(f"unknown filter kind {tuned.kind!r}")
