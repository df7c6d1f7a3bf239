"""Soft-margin linear max-margin classifier trained in the dual.

The trainer maximizes the Wolfe dual

    L(a) = sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j <x_i, x_j>

subject to ``sum_i y_i a_i = 0`` and ``0 <= a_i <= C``, by sequential
optimization of maximal-violating pairs (a working set of size two whose
two-variable subproblem is solved analytically).  Pair selection follows the
gradient-based rule: the most violating index from the "can increase" set is
paired with the most violating index from the "can decrease" set; numpy's
argmax/argmin resolve ties toward the lowest index, which makes training
deterministic for a fixed instance order.

Scores downstream are the signed perpendicular distance to the learned
hyperplane, ``(<w, x> + b) / ||w||``, so they are invariant to a positive
rescaling of ``(w, b)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import InstanceSeries, require_finite

#: Default stopping tolerance on the maximal KKT violation.
KKT_TOL = 1e-3
#: Tolerance on the dual equality constraint and on the representer identity.
EQ_TOL = 1e-8
#: Default cap on pair updates before training aborts.
MAX_PAIR_UPDATES = 1_000_000


class ConvergenceError(RuntimeError):
    """Training exceeded its pair-update budget before reaching tolerance."""


class DegenerateModelError(ValueError):
    """The trained weight vector is (numerically) zero, so distances are undefined."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Weights, bias and dual state of a trained classifier."""

    w: np.ndarray
    b: float
    alphas: np.ndarray
    C: float

    @property
    def support_indexes(self) -> np.ndarray:
        """Indexes of training instances with a strictly positive dual coefficient."""
        return np.flatnonzero(self.alphas > 0)


@dataclass(frozen=True, eq=False)
class ScoreSeries:
    """Time-ordered signed distances with the matching ground-truth labels."""

    scores: np.ndarray
    truths: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        truths = np.asarray(self.truths, dtype=int)
        if scores.shape != truths.shape or scores.ndim != 1:
            raise ValueError("scores and truths must be 1-d arrays of equal length")
        require_finite(scores, "score")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "truths", truths)

    def __len__(self) -> int:
        return self.scores.shape[0]


def train(
    train_set,
    C: float = 1.0,
    *,
    tol: float = KKT_TOL,
    max_pair_updates: int = MAX_PAIR_UPDATES,
) -> LinearModel:
    """Fit the dual problem on a labeled training block.

    Raises ``ValueError`` if only one class is present or ``C <= 0``, and
    ``ConvergenceError`` if the violation gap has not closed within
    ``max_pair_updates`` two-variable steps.
    """
    series = InstanceSeries.coerce(train_set)
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
    grad = -np.ones(n)  # gradient of the minimized form 1/2 a'Qa - 1'a
    sq_norms = np.einsum("ij,ij->i", X, X)
    crit = -y * grad  # candidate bias per instance; updated alongside grad

    up_ok = y > 0  # alpha at 0: +1 may increase, -1 may decrease
    low_ok = ~up_ok
    gap = np.inf

    for _ in range(max_pair_updates):
        up = np.where(up_ok, crit, -np.inf)
        low = np.where(low_ok, crit, np.inf)
        i = int(np.argmax(up))
        j = int(np.argmin(low))
        gap = up[i] - low[j]
        if gap <= tol:
            break
        # Move t along (+y_i e_i, -y_j e_j), which preserves sum(y a).
        eta = sq_norms[i] + sq_norms[j] - 2.0 * float(X[i] @ X[j])
        t = gap / eta if eta > 1e-12 else np.inf
        room_i = C - alphas[i] if y[i] > 0 else alphas[i]
        room_j = alphas[j] if y[j] > 0 else C - alphas[j]
        t = min(t, room_i, room_j)
        alphas[i] += y[i] * t
        alphas[j] -= y[j] * t
        delta = t * (X @ X[i] - X @ X[j])
        grad += y * delta
        crit = -y * grad
        _refresh_bounds(up_ok, low_ok, alphas, y, C, i)
        _refresh_bounds(up_ok, low_ok, alphas, y, C, j)
    else:
        raise ConvergenceError(
            f"no convergence within {max_pair_updates} pair updates (gap {gap:.3e})"
        )

    np.clip(alphas, 0.0, C, out=alphas)
    w = X.T @ (alphas * y)
    b = _bias(alphas, y, crit, C)
    return LinearModel(w=w, b=float(b), alphas=alphas, C=float(C))


def _refresh_bounds(up_ok, low_ok, alphas, y, C, idx) -> None:
    a = alphas[idx]
    pos = y[idx] > 0
    up_ok[idx] = (pos and a < C) or (not pos and a > 0)
    low_ok[idx] = (pos and a > 0) or (not pos and a < C)


def _bias(alphas: np.ndarray, y: np.ndarray, crit: np.ndarray, C: float) -> float:
    # Unbounded support vectors pin the bias exactly; average them for stability.
    free = (alphas > 0) & (alphas < C)
    if free.any():
        return float(crit[free].mean())
    up_ok = np.where(y > 0, alphas < C, alphas > 0)
    low_ok = np.where(y > 0, alphas > 0, alphas < C)
    hi = crit[up_ok].max() if up_ok.any() else -np.inf
    lo = crit[low_ok].min() if low_ok.any() else np.inf
    return float((hi + lo) / 2.0)


def dual_objective(model: LinearModel, train_set) -> float:
    """Value of the maximized dual at the model's coefficients."""
    series = InstanceSeries.coerce(train_set)
    w = series.features.T @ (model.alphas * series.labels)
    return float(model.alphas.sum() - 0.5 * float(w @ w))


def decision_value(model: LinearModel, x) -> float:
    """Affine score ``<w, x> + b``."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.w.shape:
        raise ValueError(f"expected a vector of length {model.w.shape[0]}, got shape {x.shape}")
    return float(model.w @ x + model.b)


def signed_distance(model: LinearModel, x) -> float:
    """Signed perpendicular distance from the decision boundary to ``x``."""
    norm = float(np.linalg.norm(model.w))
    if norm == 0.0:
        raise DegenerateModelError("weight vector is zero; distances are undefined")
    return decision_value(model, x) / norm


def predict(model: LinearModel, x) -> int:
    """Class label: +1 when the decision value is >= 0, else -1."""
    return 1 if decision_value(model, x) >= 0 else -1


def score_series(model: LinearModel, test_set) -> ScoreSeries:
    """Signed distances for a time-ordered block, in time order."""
    series = InstanceSeries.coerce(test_set)
    if len(series) == 0:
        return ScoreSeries(np.empty(0), np.empty(0, dtype=int))
    norm = float(np.linalg.norm(model.w))
    if norm == 0.0:
        raise DegenerateModelError("weight vector is zero; distances are undefined")
    scores = (series.features @ model.w + model.b) / norm
    return ScoreSeries(scores, series.labels)


def dump_model(model: LinearModel) -> str:
    """Plain-text snapshot (weights, bias, C, support indexes) for debugging."""
    lines = [
        "w=" + ",".join(repr(float(v)) for v in model.w),
        f"b={model.b!r}",
        f"C={model.C!r}",
        "support=" + ",".join(str(int(i)) for i in model.support_indexes),
    ]
    return "\n".join(lines) + "\n"


def parse_model_dump(text: str) -> dict:
    """Parse ``dump_model`` output back into plain Python values."""
    out: dict = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        if key == "w":
            out["w"] = [float(v) for v in value.split(",") if v]
        elif key in ("b", "C"):
            out[key] = float(value)
        elif key == "support":
            out["support"] = [int(v) for v in value.split(",") if v]
        else:
            raise ValueError(f"unrecognized line in model dump: {line!r}")
    return out
