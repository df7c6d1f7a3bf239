"""Soft-margin linear max-margin classifier trained in the dual.

The trainer maximizes the Wolfe dual

    L(a) = sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j <x_i, x_j>

subject to ``sum_i y_i a_i = 0`` and ``0 <= a_i <= C``, by sequential
optimization of maximal-violating pairs (a working set of size two whose
two-variable subproblem is solved analytically).  Pair selection follows the
gradient-based rule: the most violating index from the "can increase" set is
paired with the most violating index from the "can decrease" set; numpy's
argmax/argmin resolve ties toward the lowest index, which makes training
deterministic for a fixed instance order.  Each set is a penalty vector (0 in,
-inf/+inf out) added to the candidate biases, which updates edit in place.

Scores downstream are the signed perpendicular distance to the learned
hyperplane, ``(<w, x> + b) / ||w||``, so they are invariant to a positive
rescaling of ``(w, b)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import InstanceSeries, read_only, require_finite

#: Default stopping tolerance on the maximal KKT violation.
KKT_TOL = 1e-3
#: Default cap on pair updates before training aborts.
MAX_PAIR_UPDATES = 1_000_000


class ConvergenceError(RuntimeError):
    """Training ran out of pair updates, or its gap overflowed, before reaching tolerance."""


class DegenerateModelError(ValueError):
    """The trained weight vector is (numerically) zero, so distances are undefined."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Weights, bias and dual state of a trained classifier."""

    w: np.ndarray
    b: float
    alphas: np.ndarray
    C: float
    #: Pair updates the solver took, and its final maximal KKT violation.
    pair_updates: int = 0
    gap: float = np.nan


@dataclass(frozen=True, eq=False)
class ScoreSeries:
    """Time-ordered signed distances with the matching ground-truth labels."""

    scores: np.ndarray
    truths: np.ndarray

    def __post_init__(self) -> None:
        scores = read_only(self.scores, float)
        truths = read_only(self.truths, int)
        if scores.shape != truths.shape or scores.ndim != 1:
            raise ValueError("scores and truths must be 1-d arrays of equal length")
        require_finite(scores, "score")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "truths", truths)

    def __len__(self) -> int:
        return self.scores.shape[0]


def train(
    series: InstanceSeries,
    C: float,
    *,
    tol: float = KKT_TOL,
    max_pair_updates: int = MAX_PAIR_UPDATES,
) -> LinearModel:
    """Fit the dual problem on a labeled training block.

    Raises ``ValueError`` if only one class is present or ``C <= 0``, and
    ``ConvergenceError`` if the violation gap has not closed within
    ``max_pair_updates`` two-variable steps, stops being finite, or stalls (no
    new minimum in 10 steps per instance, at least 10,000: pairs can zig-zag).
    A +inf or NaN candidate bias stops it even outside a set: plus the penalty it is NaN.
    """
    if len(series) == 0:
        raise ValueError("training set is empty")
    if not C > 0:
        raise ValueError(f"C must be > 0, got {C}")
    X = series.features
    y = series.labels.astype(float)
    if np.unique(series.labels).size < 2:
        raise ValueError("training set must contain both classes")

    n = len(series)
    alphas = np.zeros(n)
    sq_norms = np.einsum("ij,ij->i", X, X)
    crit = y.copy()  # candidate bias, -y * gradient of 1/2 a'Qa - 1'a
    # 0 where y * alpha may rise (fall), -inf (+inf) where not; alphas start at 0.
    up_pen = np.where(y > 0, 0.0, -np.inf)
    low_pen = np.where(y > 0, np.inf, 0.0)
    up, low, col_i, col_j = (np.empty(n) for _ in range(4))
    gap = best_gap = np.inf
    best_at, patience = 0, 10 * max(n, 1_000)  # 20x a benchmark split's longest stall

    for update in range(max_pair_updates):
        np.add(crit, up_pen, out=up)
        np.add(crit, low_pen, out=low)
        i = int(np.argmax(up))
        j = int(np.argmin(low))
        gap = up[i] - low[j]
        if not -np.inf < gap < np.inf:  # overflow, which would pass as converged
            raise ConvergenceError(f"violation gap is {gap} at pair update {update}")
        if gap <= tol:
            break
        if gap < best_gap:
            best_gap, best_at = gap, update
        elif update - best_at >= patience:
            raise ConvergenceError(f"gap stalled at pair update {update}: no new minimum "
                                   f"since update {best_at} (best gap {best_gap:.3e})")
        # Move t along (+y_i e_i, -y_j e_j), which preserves sum(y a).
        eta = sq_norms[i] + sq_norms[j] - 2.0 * float(X[i] @ X[j])
        t = gap / eta if eta > 1e-12 else np.inf
        room_i = C - alphas[i] if y[i] > 0 else alphas[i]
        room_j = alphas[j] if y[j] > 0 else C - alphas[j]
        t = min(t, room_i, room_j)
        alphas[i] += y[i] * t
        alphas[j] -= y[j] * t
        # y = +-1, so -y * (grad + y * delta) == crit - delta bit for bit.
        np.matmul(X, X[i], out=col_i)
        np.matmul(X, X[j], out=col_j)
        col_i -= col_j
        col_i *= t
        crit -= col_i
        for k in (i, j):
            a = alphas[k]
            may_up, may_down = (a < C, a > 0) if y[k] > 0 else (a > 0, a < C)
            up_pen[k] = 0.0 if may_up else -np.inf
            low_pen[k] = 0.0 if may_down else np.inf
    else:
        raise ConvergenceError(
            f"no convergence within {max_pair_updates} pair updates (gap {gap:.3e})"
        )

    # Unbounded support vectors, in both sets, pin the bias exactly; average
    # them for stability.  Without any, take the midpoint of the final pair's
    # candidate biases: up[i] and low[j] are the extremes of crit over each set.
    free = (up_pen == 0.0) & (low_pen == 0.0)
    b = crit[free].mean() if free.any() else (up[i] + low[j]) / 2.0
    np.clip(alphas, 0.0, C, out=alphas)
    w = X.T @ (alphas * y)
    return LinearModel(
        w=w, b=float(b), alphas=alphas, C=float(C), pair_updates=update, gap=float(gap)
    )


def dual_objective(model: LinearModel, series: InstanceSeries) -> float:
    """Value of the maximized dual at the model's coefficients."""
    w = series.features.T @ (model.alphas * series.labels)
    return float(model.alphas.sum() - 0.5 * float(w @ w))


def score_series(model: LinearModel, series: InstanceSeries) -> ScoreSeries:
    """Signed distances for a time-ordered block, in time order."""
    if len(series) == 0:
        return ScoreSeries(np.empty(0), np.empty(0, dtype=int))
    norm = float(np.linalg.norm(model.w))
    if norm == 0.0:
        raise DegenerateModelError("weight vector is zero; distances are undefined")
    scores = (series.features @ model.w + model.b) / norm
    return ScoreSeries(scores, series.labels)
