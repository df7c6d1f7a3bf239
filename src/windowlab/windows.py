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
of about n edges: their edges concatenated, and where each lane starts.  Only
``window_sums`` reads their window sums: one gather, the pair straddling two
lanes zeroed, the same sums for a lane yielded again.  Static edges are every
``alpha``-th index.  Dynamic edges come from ``budget_walk``, which ``dca``
shares: the window from ``start`` ends at the first index after it whose key
the target ``p[start] + budget`` does not pass, or at n.  The filter's key is
the prefix sum through the index, passed at ``<=``; the DCA's is the sum
before it, passed at ``<``, so a DCA window closes on reaching its budget.
An end depends only on its start, so each budget's windows are a path from
index 0.  A budget expecting many windows walks a successor table of all
starts by pointer doubling, about log2(windows) array steps, as a batch of its
own; the next one, if a small step up, re-searches only the ends that step
passed, and if it passed none yields the same read-only lane again.  One
expecting few bisects the keys window by window and shares a batch, so a
coarse budget costs its windows, not the series length.

Tuning takes the first grid value of least mean squared label error, one lane
of edges per value, and walks no lane past the first value with none wrong; a
one-lane batch counts its wrong labels as one product of whole numbers, exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Literal, NamedTuple

import numpy as np

from . import Record, whole_number
from .svm import ScoreSeries


class DegenerateGridError(ValueError):
    """All score magnitudes are zero, so no positive threshold grid exists."""


def sign_labels(values) -> np.ndarray:
    """Labels from signs, with the convention sgn(0) = +1."""
    return np.where(np.asarray(values) >= 0, 1, -1)


class WindowSizeGrid(Record):
    """A set of candidate window widths, stored sorted and deduplicated."""

    def __init__(self, sizes: tuple[int, ...]) -> None:
        if bad := [s for s in sizes if not (float(s).is_integer() and s >= 1)]:
            raise ValueError(f"window sizes must be whole numbers >= 1, got {bad[0]}")
        self.sizes = tuple(sorted({int(s) for s in sizes}))
        if not self.sizes:
            raise ValueError("window-size grid is empty")


def default_size_grid(m: int) -> WindowSizeGrid:
    """The canonical width grid {1, 2, ..., m}."""
    return WindowSizeGrid(tuple(range(1, m + 1)))


class ThresholdGrid:
    """A strictly increasing set of dynamic-window budgets and its scale factor."""

    def __init__(self, thresholds: np.ndarray, lam: float) -> None:
        thr = np.asarray(thresholds, dtype=float)
        if thr.ndim != 1 or thr.size == 0:
            raise ValueError("threshold grid must be a nonempty 1-d array")
        if not np.all(thr > 0):
            raise ValueError("thresholds must be positive")
        if not np.all(np.diff(thr) > 0):
            raise ValueError("thresholds must be strictly increasing")
        self.thresholds, self.lam = thr, lam


class TunedFilter(NamedTuple):
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


def window_sums(cum: np.ndarray, batches: Iterable[tuple]) -> Iterator[tuple]:
    """Each batch's edges, starts and window sums over the last axis of prefix
    sums ``cum``.  The pair straddling two lanes, from n back to 0, sums to 0; a
    batch yielded again (the same edges object) gets the same sums object."""
    prev = None
    for edges, starts in batches:
        if edges is not prev:
            c, prev = cum.take(edges, -1), edges
            sums = c[..., 1:] - c[..., :-1]
            if len(starts) > 1:  # an empty index costs more than the gather
                sums[..., starts[1:] - 1] = 0.0
        yield edges, starts, sums


def _window_labels(series: ScoreSeries, batches: Iterable[tuple]) -> np.ndarray:
    edges, _, sums = next(window_sums(prefix_sums(series.scores), batches))
    return np.repeat(sign_labels(sums), edges[1:] - edges[:-1])


def static_label(series: ScoreSeries, alpha: int) -> np.ndarray:
    """Label every instance with the sign of its fixed-width window's score sum."""
    (alpha,) = WindowSizeGrid((alpha,)).sizes
    return _window_labels(series, _static_batches(len(series), np.array([alpha])))


def _lane_errors(series: ScoreSeries, batches: Iterable[tuple]) -> np.ndarray:
    """Each lane's mean squared label error ``4 * wrong / n``, batches taken in
    lane order up to the first holding a lane with none wrong: a prefix whose
    first 0 is the argmin.  A -1 window gets its positives wrong, a +1 window
    its negatives: all positives, plus per +1 window its window sum of -truth,
    its width less twice its positives.  Integer terms, so sums are exact; a
    batch yielded again (the same sums object) keeps its counts."""
    cum = np.zeros((2, len(series) + 1))
    np.cumsum(series.scores, out=cum[0, 1:])
    np.cumsum(-series.truths, out=cum[1, 1:])
    positives = int(np.sum(series.truths > 0))
    counts, prev = [], None
    for _, starts, sums in window_sums(cum, batches):
        if sums is not prev:  # whole-number terms, so one lane's product is exact
            prev, wrong, one = sums, sums[0] >= 0, len(starts) == 1
            batch = sums[1:] @ wrong if one else np.add.reduceat(sums[1] * wrong, starts)
            least = batch[0] if one else batch.min()
        counts.append(batch)
        if least == -positives:  # none wrong: no later lane can take the argmin
            break
    return (4 * (positives + np.concatenate(counts))) / len(series)


def _tune(kind, series: ScoreSeries, params, batches: Iterable[tuple]) -> TunedFilter:
    """The parameter whose lane mislabels fewest instances; ties go to the first,
    so no lane is walked past the first that mislabels none."""
    errors = _lane_errors(series, batches)
    best = int(np.argmin(errors))
    return TunedFilter(kind, float(params[best]), float(errors[best]))


def tune_static(series: ScoreSeries, grid: WindowSizeGrid) -> TunedFilter:
    """Width in the grid minimizing training error; ties go to the smallest."""
    return _tune("static", series, grid.sizes, _static_batches(len(series), np.array(grid.sizes)))


def budget_ladder(peak: float, m: int, lam: float) -> np.ndarray:
    """Budgets peak * (l/m) * lam for l = 1..m: the dynamic window's threshold
    grid and the DCA's lifespans.  Each caller rejects its own zero peak."""
    m = whole_number(m, "ladder size", 1)
    if not 0 < lam < np.inf:
        raise ValueError(f"scale factor must be positive and finite, got {lam}")
    return peak * (np.arange(1, m + 1, dtype=float) / m) * lam


def make_threshold_grid(series: ScoreSeries, m: int, lam: float) -> ThresholdGrid:
    """Budgets b_l = max|score| * (l/m) * lam for l = 1..m."""
    peak = float(np.max(np.abs(series.scores)))
    budgets = budget_ladder(peak, m, lam)
    if peak == 0.0:
        raise DegenerateGridError("all scores are zero; threshold grid would be degenerate")
    return ThresholdGrid(budgets, float(lam))


# The starts of a batch holding one table lane, shared by every such batch.
_ONE_LANE = np.zeros(1, np.intp)
_ONE_LANE.flags.writeable = False

# A batched bisect step costs about as much as 8 starts of a doubling lane, with
# each lane's consumer (0.3-0.4 us per window, 0.04-0.06 us per start; n = 1,000, 8,000).
_BISECT_STEP_COST = 8


def budget_walk(
    cum_mag: np.ndarray, budgets: Iterable[float], side: Literal["left", "right"]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each budget's window edges over prefix sums of nonnegative
    magnitudes: batches of lanes, in budget order.

    The window from ``start`` ends at the first index after it whose key the
    target ``before[start] + budget`` does not pass, or at n (``before`` is
    0.0, then ``cum_mag[:-1]``).  The keys are ``cum_mag`` passed at ``<=`` for
    ``side="right"``, ``before`` passed at ``<`` for ``side="left"``.  That end
    depends on the start alone, so a lane is the path from 0 through it, found
    in one of two ways chosen by the lane's expected window count
    ``cum_mag[-1] / budget``:

    * many windows: ``searchsorted`` gives the successor table ``s`` of every
      start, and of start n, clipped to ``[start + 1, n]``; ``s`` jumping m
      windows maps the first m edges to the next m, then ``s[s]`` jumps 2m.
      The lane is a batch of its own.  Ends only move forward as the budget
      grows, so ``s`` is kept, and a step under the mean magnitude re-searches
      only ends whose key (inf at n) the target now passes; the ends' keys are
      built on the first such step after a rebuild, then refreshed as ends
      move.  If none does, ``s`` and so the path are unchanged, and the last
      table lane is yielded again: its edges are read-only.  Other steps
      rebuild ``s``.  The doubling reads ``s`` and writes two tables made on
      the walk's first table lane, in turn; the lane copies its path;
    * few windows (under n / ``_BISECT_STEP_COST``): each step bisects the
      keys from ``start + 1`` alone, so the lane costs its windows, not n.
      Such lanes share a batch, yielded once it holds n edges or a table lane is next.

    Both compute the same float target and clip, so they give the same edges.
    Lanes are independent, so budgets may come in any order."""
    n = cum_mag.shape[0]
    if n == 0:
        raise ValueError("prefix sums are empty: a budget walk needs at least one index")
    before = np.concatenate([[0.0], cum_mag[:-1], [np.inf]])
    floor = np.arange(1, n + 2)
    total = float(cum_mag[-1])
    cum = pre = scratch = at_end = None
    # each index's key, inf at n, the test it passes, and the search for the first that fails
    stop, passed, bisect = (before, np.less, bisect_left) if side == "left" else (
        np.append(cum_mag, np.inf), np.less_equal, bisect_right)
    keys = stop[:n]
    target, last = np.empty(n + 1), np.inf  # the kept table's targets and budget, inf for none
    edges, starts = [], []  # the sparse lanes' batch
    for budget in budgets:
        budget = float(budget)
        sparse = total * _BISECT_STEP_COST < n * budget
        if edges and (len(edges) >= n or not sparse):  # lists freed before the consumer runs
            batch, edges, starts = (np.array(edges, np.intp), np.array(starts, np.intp)), [], []
            yield batch
        if sparse:
            if cum is None:
                pre = before.tolist()
                cum = pre if stop is before else stop.tolist()
            start = 0
            starts.append(len(edges))
            edges.append(0)
            while start < n:  # bisect's bounds carry the clip to [start + 1, n]
                start = bisect(cum, pre[start] + budget, start + 1, n)
                edges.append(start)
        else:
            np.add(before, budget, out=target)
            step, last = budget - last, budget
            if 0 <= step < total / n:  # ends move forward: re-search those passed
                if at_end is None:  # built on the first re-search after a rebuild
                    at_end = stop.take(table[:n])
                moved = passed(at_end, target[:n]).nonzero()[0]
                if not moved.size:  # the table, so the path, is unchanged
                    yield lane
                    continue
                ends = keys.searchsorted(target[moved], side)  # n keys, so at most n
                table[moved], at_end[moved] = ends, stop.take(ends)
            else:
                table = keys.searchsorted(target, side)
                np.maximum(table, floor, out=table)
                np.minimum(table, n, out=table)
                at_end = None
            if scratch is None:  # the path's buffer and the doubling's two tables, used in turn
                scratch, jumps = np.zeros(2 * n, np.intp), tuple(np.empty((2, n + 1), np.intp))
            # m <= windows <= n, so indices stay in range; clip mode skips take's copy of out
            succ, m = table, 1
            while succ.take(scratch[:m], out=scratch[m : 2 * m], mode="clip")[-1] < n:
                succ, m = succ.take(succ, out=jumps[succ is jumps[0]], mode="clip"), 2 * m
            path = scratch[: scratch[: 2 * m].searchsorted(n) + 1].copy()  # rises to n, then stays
            path.flags.writeable = False  # a lane may be yielded again
            lane = path, _ONE_LANE
            yield lane
    if edges:
        batch, edges, starts = (np.array(edges, np.intp), np.array(starts, np.intp)), [], []
        yield batch


def dynamic_label(series: ScoreSeries, beta: float) -> np.ndarray:
    """Label every instance with the sign of its dynamic window's score sum."""
    if not beta > 0:
        raise ValueError(f"threshold must be > 0, got {beta}")
    return _window_labels(series, budget_walk(np.cumsum(np.abs(series.scores)), [beta], "right"))


def tune_dynamic(series: ScoreSeries, grid: ThresholdGrid) -> TunedFilter:
    """Budget in the grid minimizing training error; ties go to the smallest."""
    walk = budget_walk(np.cumsum(np.abs(series.scores)), grid.thresholds, "right")
    return _tune("dynamic", series, grid.thresholds, walk)


def apply(tuned: TunedFilter, series: ScoreSeries) -> np.ndarray:
    """Run a tuned filter on a (typically held-out) score series."""
    if tuned.kind == "static":
        return static_label(series, tuned.parameter)
    if tuned.kind == "dynamic":
        return dynamic_label(series, tuned.parameter)
    raise ValueError(f"unknown filter kind {tuned.kind!r}")
