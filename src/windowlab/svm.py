"""Soft-margin linear max-margin classifier trained in the dual.

The trainer maximizes the Wolfe dual

    L(a) = sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j <x_i, x_j>

subject to ``sum_i y_i a_i = 0`` and ``0 <= a_i <= C``, by sequential
optimization of maximal-violating pairs (a working set of size two whose
two-variable subproblem is solved analytically).  Pair selection follows the
gradient-based rule: the most violating index from the "can increase" set is
paired with the most violating index from the "can decrease" set; numpy's
argmax/argmin resolve ties toward the lowest index, which makes training
deterministic for a fixed instance order.  Each set is a vector of candidate
biases (-inf/+inf outside it): the two are rows of one array, which updates
shift in one call and edit in place; a unit step is not multiplied.  An update's
pair scalars (gap, step, the two alphas) are Python floats, rounding as numpy's.

Scores downstream are the signed perpendicular distance to the learned
hyperplane, ``(<w, x> + b) / ||w||``, so they are invariant to a positive
rescaling of ``(w, b)``.
"""

from __future__ import annotations

import numpy as np

from .datagen import InstanceSeries, plus_minus_one, read_only, require_finite

#: Default stopping tolerance on the maximal KKT violation.
KKT_TOL = 1e-3
#: Default cap on pair updates before training aborts.
MAX_PAIR_UPDATES = 1_000_000


class ConvergenceError(RuntimeError):
    """Training ran out of pair updates, or its gap overflowed, before reaching tolerance."""


class DegenerateModelError(ValueError):
    """The trained weight vector is (numerically) zero, so distances are undefined."""


class LinearModel:
    """Weights, bias and dual state of a trained classifier, with the pair
    updates the solver took and its final maximal KKT violation."""

    def __init__(self, w: np.ndarray, b: float, alphas: np.ndarray, C: float,
                 pair_updates: int = 0, gap: float = np.nan) -> None:
        self.w, self.b, self.alphas, self.C = w, b, alphas, C
        self.pair_updates, self.gap = pair_updates, gap


class ScoreSeries:
    """Time-ordered signed distances with the matching ground-truth labels."""

    def __init__(self, scores: np.ndarray, truths: np.ndarray) -> None:
        scores = read_only(scores, float)
        truths = np.asarray(truths)
        if scores.shape != truths.shape or scores.ndim != 1:
            raise ValueError("scores and truths must be 1-d arrays of equal length")
        if scores.size == 0 or not plus_minus_one(truths):
            raise ValueError("score series must be nonempty, with truth labels -1 or +1")
        require_finite(scores, "score")
        self.scores, self.truths = scores, read_only(truths, int)

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

    Raises ``ValueError`` if only one class is present or ``C`` is not in (0, inf),
    and ``ConvergenceError`` if the violation gap has not closed within
    ``max_pair_updates`` two-variable steps, stops being finite, or stalls (no
    new minimum in max(10 n, 10^7 / n) steps, about fixed work: pairs can zig-zag).
    A NaN candidate bias, or +inf (-inf) in the "can increase" ("decrease") set, stops it.
    """
    if not 0 < C < np.inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    X = series.features
    y = series.labels.astype(float)
    if y.min() == y.max():  # labels are +-1, so this is the one-class case
        raise ValueError("training set must contain both classes")

    n = len(series)
    alphas = np.zeros(n)
    sq_norms = np.einsum("ij,ij->i", X, X)
    # Candidate bias (-y * gradient of 1/2 a'Qa - 1'a) where y * alpha may rise
    # (fall), -inf (+inf) where not; alphas start at 0 and the bias at y.
    up, low = bounds = np.array((y, y))
    up[y < 0], low[y > 0] = -np.inf, np.inf
    col_i, col_j = np.empty(n), np.empty(n)
    y_at, alpha_at, sq_norm_at = y.item, alphas.item, sq_norms.item
    up_at, low_at, up_argmax, low_argmin = up.item, low.item, up.argmax, low.argmin
    gap = best_gap = inf = np.inf
    C = float(C)
    best_at, patience = 0, max(10 * n, 10_000_000 // n)  # 20x a benchmark split's longest stall

    for update in range(max_pair_updates):
        i = int(up_argmax())
        j = int(low_argmin())
        gap = up_at(i) - low_at(j)
        if gap != gap:  # an overflowed column can leave NaN outside a set (-inf - -inf)
            up[~np.where(y > 0, alphas < C, alphas > 0)] = -inf
            low[~np.where(y > 0, alphas > 0, alphas < C)] = inf
            i, j = int(up_argmax()), int(low_argmin())
            gap = up_at(i) - low_at(j)
        if not -inf < gap < inf:  # overflow, which would pass as converged
            raise ConvergenceError(f"violation gap is {gap} at pair update {update}")
        if gap <= tol:
            break
        if gap < best_gap:
            best_gap, best_at = gap, update
        elif update - best_at >= patience:
            raise ConvergenceError(f"gap stalled at pair update {update}: no new minimum "
                                   f"since update {best_at} (best gap {best_gap:.3e})")
        # Move t along (+y_i e_i, -y_j e_j), which preserves sum(y a).
        xi, yi, ai = X[i], y_at(i), alpha_at(i)
        xj, yj, aj = X[j], y_at(j), alpha_at(j)
        eta = sq_norm_at(i) + sq_norm_at(j) - 2.0 * xi.dot(xj).item()
        t = gap / eta if eta > 1e-12 else inf
        t = min(t, C - ai if yi > 0 else ai, aj if yj > 0 else C - aj)
        alphas[i] = ai = ai + yi * t
        alphas[j] = aj = aj - yj * t
        # y = +-1, so -y * (grad + y * delta) == bias - delta bit for bit.
        np.matmul(X, xi, out=col_i)
        np.matmul(X, xj, out=col_j)
        col_i -= col_j
        if t != 1.0:  # x * 1.0 == x for every float
            col_i *= t
        bounds -= col_i
        # The gap was finite, so i is in the up set and j in the low set (a test
        # by value before the subtraction agrees); read their biases from those.
        # It exceeded tol >= 0, so i != j: an index in both sets has one bias.
        bias = up_at(i)
        up[i] = bias if (ai < C if yi > 0 else ai > 0) else -inf
        low[i] = bias if (ai > 0 if yi > 0 else ai < C) else inf
        bias = low_at(j)
        up[j] = bias if (aj < C if yj > 0 else aj > 0) else -inf
        low[j] = bias if (aj > 0 if yj > 0 else aj < C) else inf
    else:
        raise ConvergenceError(
            f"no convergence within {max_pair_updates} pair updates (gap {gap:.3e})"
        )

    # Unbounded support vectors, in both sets, pin the bias exactly; average
    # them for stability.  Without any, take the midpoint of the final pair's
    # candidate biases: up[i] and low[j] are the extremes over each set.
    free = up == low  # in both sets: a finite gap leaves no +inf in up, -inf in low
    b = up[free].mean() if free.any() else (up[i] + low[j]) / 2.0
    np.clip(alphas, 0.0, C, out=alphas)
    w = X.T @ np.multiply(alphas, y, out=col_i)
    return LinearModel(w=w, b=float(b), alphas=alphas, C=C, pair_updates=update, gap=gap)


def dual_objective(model: LinearModel, series: InstanceSeries) -> float:
    """Value of the maximized dual at the model's coefficients."""
    w = series.features.T @ (model.alphas * series.labels)
    return float(model.alphas.sum() - 0.5 * float(w @ w))


def score_series(model: LinearModel, series: InstanceSeries) -> ScoreSeries:
    """Signed distances for a time-ordered block, in time order."""
    norm = float(np.linalg.norm(model.w))
    if norm == 0.0:
        raise DegenerateModelError("weight vector is zero; distances are undefined")
    scores = (series.features @ model.w + model.b) / norm
    return ScoreSeries(scores, series.labels)
