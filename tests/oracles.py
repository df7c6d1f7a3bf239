"""Independent brute-force re-implementations used as test oracles.

Everything here is deliberately written the slow, literal way (explicit
loops, per-step state) and must stay independent of the package internals:
oracles check the vectorized implementations, so they may not share code
with them.
"""

from __future__ import annotations

import itertools

import mpmath as mp
import numpy as np


# ---------------------------------------------------------------------------
# Moving-window filters
# ---------------------------------------------------------------------------


def sign_plus(x: float) -> int:
    return 1 if x >= 0 else -1


def static_spans(n: int, alpha: int) -> list[tuple[int, int]]:
    spans = []
    start = 0
    while start < n:
        spans.append((start, min(start + alpha - 1, n - 1)))
        start += alpha
    return spans


def static_labels(scores, alpha: int) -> np.ndarray:
    scores = list(map(float, scores))
    labels = [0] * len(scores)
    for start, end in static_spans(len(scores), alpha):
        total = 0.0
        for i in range(start, end + 1):
            total += scores[i]
        lab = sign_plus(total)
        for i in range(start, end + 1):
            labels[i] = lab
    return np.array(labels)


def mean_square_label_error(labels, truths) -> float:
    return sum((l - t) ** 2 for l, t in zip(labels, truths)) / len(truths)


def tune_static(scores, truths, sizes) -> tuple[int, float]:
    best = None
    for alpha in sorted(set(int(s) for s in sizes)):
        err = mean_square_label_error(static_labels(scores, alpha), truths)
        if best is None or err < best[1]:
            best = (alpha, err)
    return best


def dynamic_spans(scores, beta: float) -> list[tuple[int, int]]:
    scores = list(map(float, scores))
    n = len(scores)
    spans = []
    start = 0
    while start < n:
        total = abs(scores[start])
        end = start
        while end + 1 < n and total + abs(scores[end + 1]) <= beta:
            end += 1
            total += abs(scores[end])
        spans.append((start, end))
        start = end + 1
    return spans


def dynamic_labels(scores, beta: float) -> np.ndarray:
    scores = list(map(float, scores))
    labels = [0] * len(scores)
    for start, end in dynamic_spans(scores, beta):
        total = 0.0
        for i in range(start, end + 1):
            total += scores[i]
        lab = sign_plus(total)
        for i in range(start, end + 1):
            labels[i] = lab
    return np.array(labels)


def tune_dynamic(scores, truths, betas) -> tuple[float, float]:
    best = None
    for beta in sorted(float(b) for b in betas):
        err = mean_square_label_error(dynamic_labels(scores, beta), truths)
        if best is None or err < best[1]:
            best = (beta, err)
    return best


def budget_ladder(peak: float, m: int, lam: float) -> list[float]:
    """Budgets peak * (l/m) * lam for l = 1..m, multiplied in that order."""
    return [peak * (l / m) * lam for l in range(1, m + 1)]


def prefix_sums(values) -> list[float]:
    sums = []
    total = 0.0
    for v in values:
        total += float(v)
        sums.append(total)
    return sums


def budget_spans(magnitudes, budget: float, side: str) -> list[tuple[int, int]]:
    """One lane of budget windows, stepped index by index.

    A window ends where the running total since the previous window's end,
    prefix[end_prev] + budget, is met: "right" takes the last index at or
    below it (at least one index), "left" the first index reaching it (or
    the last index of the series).
    """
    cum = prefix_sums(magnitudes)
    n = len(cum)
    spans = []
    start = 0
    prev = 0.0
    while start < n:
        target = prev + float(budget)
        end = start
        if side == "right":
            while end + 1 < n and cum[end + 1] <= target:
                end += 1
        else:
            while end + 1 < n and cum[end] < target:
                end += 1
        spans.append((start, end))
        prev = cum[end]
        start = end + 1
    return spans


# ---------------------------------------------------------------------------
# Dual QP by active-set enumeration (exact for tiny n)
# ---------------------------------------------------------------------------


def qp_reference(X, y, C: float) -> dict:
    """Globally optimal dual solution found by enumerating bound patterns.

    Every candidate evaluated is feasible, and the true optimum's bound
    pattern is among the enumerated ones, so the best candidate is the
    global maximum of the dual.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    Q = (y[:, None] * X) @ (y[:, None] * X).T
    best_obj, best_alpha = -np.inf, None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pattern = np.array(pattern)
        alpha = np.zeros(n)
        alpha[pattern == 1] = C
        free = np.flatnonzero(pattern == 2)
        bound = np.flatnonzero(pattern != 2)
        if free.size:
            size = free.size
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = Q[np.ix_(free, free)]
            kkt[:size, -1] = y[free]
            kkt[-1, :size] = y[free]
            rhs = np.concatenate(
                [1.0 - Q[np.ix_(free, bound)] @ alpha[bound], [-float(y[bound] @ alpha[bound])]]
            )
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            a_free = sol[:size]
            if np.any(a_free < -1e-9) or np.any(a_free > C + 1e-9):
                continue
            alpha[free] = np.clip(a_free, 0.0, C)
        if abs(float(y @ alpha)) > 1e-9:
            continue
        obj = float(alpha.sum() - 0.5 * alpha @ (Q @ alpha))
        if obj > best_obj:
            best_obj, best_alpha = obj, alpha.copy()
    w = X.T @ (best_alpha * y)
    free = np.flatnonzero((best_alpha > 1e-9) & (best_alpha < C - 1e-9))
    if free.size:
        b = float(np.mean(y[free] - X[free] @ w))
    else:
        margins = y - X @ w
        up = margins[((y > 0) & (best_alpha < C - 1e-9)) | ((y < 0) & (best_alpha > 1e-9))]
        low = margins[((y < 0) & (best_alpha < C - 1e-9)) | ((y > 0) & (best_alpha > 1e-9))]
        b = float((up.max() + low.min()) / 2.0)
    return {"objective": best_obj, "alphas": best_alpha, "w": w, "b": b}


# ---------------------------------------------------------------------------
# Dual QP by maximal-violating pairs, with boolean masks and a gradient array
# ---------------------------------------------------------------------------


def smo_train(X, y, C: float, tol: float = 1e-3, max_pair_updates: int = 1_000_000) -> dict:
    """The pair-update solver written the literal way: selection through
    ``np.where`` masks, a full gradient array and ``crit`` rebuilt from it
    every update.

    Its arithmetic is the arithmetic the in-place solver must reproduce bit
    for bit.  Failure to converge raises ``RuntimeError``.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(y)
    if labels.size == 0:
        raise ValueError("training set is empty")
    if not C > 0:
        raise ValueError(f"C must be > 0, got {C}")
    y = labels.astype(float)
    if np.unique(labels).size < 2:
        raise ValueError("training set must contain both classes")

    n = labels.size
    alphas = np.zeros(n)
    grad = -np.ones(n)  # gradient of the minimized form 1/2 a'Qa - 1'a
    sq_norms = np.einsum("ij,ij->i", X, X)
    crit = -y * grad  # candidate bias per instance; updated alongside grad

    up_ok = y > 0  # alpha at 0: +1 may increase, -1 may decrease
    low_ok = ~up_ok
    gap = np.inf

    for update in range(max_pair_updates):
        up = np.where(up_ok, crit, -np.inf)
        low = np.where(low_ok, crit, np.inf)
        i = int(np.argmax(up))
        j = int(np.argmin(low))
        gap = up[i] - low[j]
        if not -np.inf < gap < np.inf:
            raise RuntimeError(f"violation gap is {gap} at pair update {update}")
        if gap <= tol:
            break
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
        raise RuntimeError(f"no convergence within {max_pair_updates} pair updates")

    np.clip(alphas, 0.0, C, out=alphas)
    w = X.T @ (alphas * y)
    free = (alphas > 0) & (alphas < C)
    if free.any():
        b = float(crit[free].mean())
    else:
        up_ok = np.where(y > 0, alphas < C, alphas > 0)
        low_ok = np.where(y > 0, alphas > 0, alphas < C)
        hi = crit[up_ok].max() if up_ok.any() else -np.inf
        lo = crit[low_ok].min() if low_ok.any() else np.inf
        b = float((hi + lo) / 2.0)
    return {"w": w, "b": b, "alphas": alphas, "pair_updates": update, "gap": float(gap)}


def _refresh_bounds(up_ok, low_ok, alphas, y, C, idx) -> None:
    a = alphas[idx]
    pos = y[idx] > 0
    up_ok[idx] = (pos and a < C) or (not pos and a > 0)
    low_ok[idx] = (pos and a > 0) or (not pos and a < C)


# ---------------------------------------------------------------------------
# Dataset set-up, as first written
# ---------------------------------------------------------------------------


def centroid_distance(train, test) -> float:
    """The splits stacked, each class's mean by ``mean(axis=0)`` and the norm
    of their difference: the formula whose bits the package must keep."""
    feats = np.vstack([train.features, test.features])
    labs = np.concatenate([train.labels, test.labels])
    means = [feats[labs == lab].mean(axis=0) for lab in (-1, 1)]
    return float(np.linalg.norm(means[1] - means[0]))


# ---------------------------------------------------------------------------
# Dendritic cells, stepped literally
# ---------------------------------------------------------------------------


def dca_votes(safe, danger, lifespans) -> list[list[float]]:
    safe = list(map(float, safe))
    danger = list(map(float, danger))
    n = len(safe)
    votes: list[list[float]] = [[] for _ in range(n)]
    for lifespan in lifespans:
        csm_sum = 0.0
        k_sum = 0.0
        start = 0
        for i in range(n):
            csm_sum += safe[i] + danger[i]
            k_sum += danger[i] - safe[i]
            if csm_sum >= lifespan:
                for j in range(start, i + 1):
                    votes[j].append(k_sum)
                csm_sum = 0.0
                k_sum = 0.0
                start = i + 1
        if start < n:
            for j in range(start, n):
                votes[j].append(k_sum)
    return votes


def dca_signals(features, labels, anomalous: int = 1) -> tuple[list[float], list[float]]:
    """Safe and danger signals of a two-feature block: each feature min-max
    normalized by loops, the one with the larger Pearson correlation with the
    anomaly indicator (+1 anomalous, -1 otherwise; the first on a tie) is
    danger, and the other is safe, flipped when it correlates positively."""
    columns = [[float(row[j]) for row in features] for j in range(2)]
    indicator = [1.0 if int(lab) == anomalous else -1.0 for lab in labels]
    n = len(indicator)
    norm, corr = [], []
    for col in columns:
        lo = hi = col[0]
        for x in col:
            lo, hi = min(lo, x), max(hi, x)
        scaled = [(x - lo) / (hi - lo) for x in col]
        mean_x, mean_a = sum(scaled) / n, sum(indicator) / n
        cov = var_x = var_a = 0.0
        for x, a in zip(scaled, indicator):
            cov += (x - mean_x) * (a - mean_a)
            var_x += (x - mean_x) ** 2
            var_a += (a - mean_a) ** 2
        norm.append(scaled)
        corr.append(cov / (var_x * var_a) ** 0.5)
    danger_idx = 0 if corr[0] >= corr[1] else 1
    safe = norm[1 - danger_idx]
    if corr[1 - danger_idx] > 0:
        safe = [1.0 - s for s in safe]
    return safe, norm[danger_idx]


def dca_labels(safe, danger, lifespans) -> np.ndarray:
    votes = dca_votes(safe, danger, lifespans)
    return np.array([sign_plus(sum(v) / len(v)) for v in votes])


def dca_vote_sums(safe, danger, lifespans) -> np.ndarray:
    """Per-instance vote sums range-added through a difference array one
    window at a time, cell by cell: += vote at the window's start, then
    -= vote just past its end."""
    safe = list(map(float, safe))
    danger = list(map(float, danger))
    n = len(safe)
    csm = [s + d for s, d in zip(safe, danger)]
    cum_k = [0.0] + prefix_sums([d - s for s, d in zip(safe, danger)])
    diff = [0.0] * (n + 1)
    for lifespan in lifespans:
        for start, end in budget_spans(csm, lifespan, "left"):
            vote = cum_k[end + 1] - cum_k[start]
            diff[start] += vote
            diff[end + 1] -= vote
    return np.array(prefix_sums(diff[:-1]))


# ---------------------------------------------------------------------------
# Frequency responses in extended precision
# ---------------------------------------------------------------------------


def mp_sliding_gain(width: int, omega: float, dps: int = 50) -> complex:
    with mp.workdps(dps):
        om = mp.mpf(omega)
        total = mp.mpc(0)
        for g in range(width):
            total += mp.exp(-1j * g * om)
        return complex(total / width)


def mp_dc_gain(width: int, omega: float, dps: int = 50) -> complex:
    with mp.workdps(dps):
        om = mp.mpf(omega)
        total = mp.mpc(0)
        for g in range(width):
            shifted = om + 2 * g * mp.pi
            for b in range(width):
                total += mp.exp(-1j * b * shifted)
        return complex(total / width**2)


def sliding_means(values, width: int) -> np.ndarray:
    values = list(map(float, values))
    out = []
    for t in range(width - 1, len(values)):
        total = 0.0
        for a in range(t - width + 1, t + 1):
            total += values[a]
        out.append(total / width)
    return np.array(out)
