"""Normality screening and paired location tests for benchmark error vectors.

Implements the Shapiro-Wilk W test (Royston's polynomial approximation to the
null distribution, valid for 3 <= n <= 5000), the Wilcoxon signed-rank test
(exact tail probabilities by enumerating the 2^n sign assignments for small
samples, a tie- and continuity-corrected normal approximation otherwise), and
a paired Student t test for the parametric branch.  ``normality_report`` and
``paired_report`` are the battery's whole test rule: each gives a report or a
note saying why there is none, and the t test runs only when both samples and
their differences all look normal at the 0.05 level.  Both paired tests take
p from their two tails: a one-sided p is its own tail, never one minus the
other, and a two-sided p is twice the smaller tail, at most 1.

Error rates are quantized, so ties and zero differences are the norm: zero
differences are discarded (the effective sample size is always reported) and
tied magnitudes receive midranks.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from . import Record
from .datagen import require_finite

_NORMAL = NormalDist()

#: Sample size at or below which Wilcoxon tail probabilities are exact.
EXACT_LIMIT = 25

ALTERNATIVES = ("two-sided", "a-less", "a-greater")


class DegenerateSampleError(ValueError):
    """The sample carries no usable signal (zero variance or no nonzero pairs)."""


class PairedSample:
    """Two equal-length result vectors paired by index."""

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        self.a, self.b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if self.a.ndim != 1 or self.a.shape != self.b.shape:
            raise ValueError("paired samples must be 1-d and of equal length")
        if self.a.size < 2:
            raise ValueError("paired samples need at least 2 pairs")
        require_finite(self.a, "paired sample a")
        require_finite(self.b, "paired sample b")

    @property
    def differences(self) -> np.ndarray:
        return self.a - self.b


class TestReport(Record):
    """Outcome of one hypothesis test."""

    def __init__(self, test: str, statistic: float, p_value: float, alternative: str,
                 n_effective: int) -> None:
        if not 0.0 <= p_value <= 1.0:
            raise ValueError(f"p-value {p_value} outside [0, 1]")
        self.test, self.statistic, self.p_value = test, statistic, p_value
        self.alternative, self.n_effective = alternative, n_effective


# ---------------------------------------------------------------------------
# Shapiro-Wilk
# ---------------------------------------------------------------------------

# Polynomial coefficients (ascending powers) of the W-statistic null
# approximation; see Royston, Applied Statistics 44 (1995), algorithm AS R94.
_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_C6 = (-0.4803, -0.082676, 0.0030302)
_G = (-2.273, 0.459)
_PI6 = 1.909859
_STQR = 1.047198


def _poly(coeffs, x: float) -> float:
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _shapiro_coefficients(n: int) -> np.ndarray:
    """Best-linear-unbiased-ish weights for the lower half of the order statistics."""
    n2 = n // 2
    if n == 3:
        return np.array([math.sqrt(0.5)])
    m = np.array(
        [_NORMAL.inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n2 + 1)]
    )
    summ2 = 2.0 * float(m @ m)
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a1 = _poly(_C1, rsn) - m[0] / ssumm2
    if n > 5:
        a2 = _poly(_C2, rsn) - m[1] / ssumm2
        fac = math.sqrt(
            (summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
            / (1.0 - 2.0 * a1**2 - 2.0 * a2**2)
        )
        return np.concatenate([[a1, a2], -m[2:] / fac])
    fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1**2))
    return np.concatenate([[a1], -m[1:] / fac])


def shapiro_wilk(x) -> TestReport:
    """W statistic and approximate p-value; small p flags non-normality."""
    x = np.asarray(x, dtype=float)
    require_finite(x, "Shapiro-Wilk sample")
    x = np.sort(x)
    n = x.size
    if n < 3 or n > 5000:
        raise ValueError(f"sample size must be within [3, 5000], got {n}")
    if x[-1] - x[0] <= 0.0:
        raise DegenerateSampleError("sample has zero range; W is undefined")

    half = _shapiro_coefficients(n)
    coef = np.zeros(n)
    n2 = n // 2
    coef[:n2] = -half
    coef[n - n2 :] = half[::-1]

    xc = x - x.mean()
    ssx = float(xc @ xc)
    ssa = float(coef @ coef)
    sax = float(coef @ xc)
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    w = 1.0 - w1

    if n == 3:
        p = _PI6 * (math.asin(math.sqrt(max(w, 0.0))) - _STQR)
        p = min(max(p, 0.0), 1.0)
        return TestReport("shapiro-wilk", float(w), float(p), "two-sided", n)

    y = math.log(w1)
    if n <= 11:
        gamma = _poly(_G, float(n))
        if y >= gamma:
            return TestReport("shapiro-wilk", float(w), 1e-19, "two-sided", n)
        y = -math.log(gamma - y)
        mu = _poly(_C3, float(n))
        sigma = math.exp(_poly(_C4, float(n)))
    else:
        ln_n = math.log(float(n))
        mu = _poly(_C5, ln_n)
        sigma = math.exp(_poly(_C6, ln_n))
    p = _norm_sf((y - mu) / sigma)
    return TestReport("shapiro-wilk", float(w), float(p), "two-sided", n)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank
# ---------------------------------------------------------------------------


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _check_alternative(alternative: str) -> None:
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")


def _tailed(alternative: str, p_less: float, p_greater: float) -> float:
    """The p-value of ``alternative`` from the two one-sided tail probabilities."""
    two_sided = min(1.0, 2.0 * min(p_less, p_greater))
    return {"a-less": p_less, "a-greater": p_greater}.get(alternative, two_sided)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their ranks (exact half-integers)."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _exact_tail_probs(doubled_ranks: np.ndarray, v2: int) -> tuple[float, float]:
    """P(V <= v) and P(V >= v) by counting sign assignments on the doubled-rank
    scale (doubling makes midranks integral, so the count array is exact)."""
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled_ranks.tolist():
        counts[r:] = counts[r:] + counts[:-r]
    denom = 2.0 ** doubled_ranks.size
    p_less = counts[: v2 + 1].sum() / denom
    p_greater = counts[v2:].sum() / denom
    return float(p_less), float(p_greater)


def wilcoxon_signed_rank(sample: PairedSample, alternative: str = "two-sided") -> TestReport:
    """Signed-rank test on paired differences.

    The statistic is the sum of the ranks of the positive differences.  Zero
    differences are discarded before ranking; ties among magnitudes receive
    midranks.  Tail probabilities are exact for up to ``EXACT_LIMIT`` nonzero
    differences and use the tie- and continuity-corrected normal
    approximation beyond that.
    """
    _check_alternative(alternative)
    diffs = sample.differences
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        raise DegenerateSampleError("all paired differences are zero")
    magnitudes = np.abs(diffs)
    ranks = _midranks(magnitudes)
    v = float(ranks[diffs > 0].sum())

    if n <= EXACT_LIMIT:
        doubled = np.rint(2.0 * ranks).astype(int)
        v2 = int(round(2.0 * v))
        p_less, p_greater = _exact_tail_probs(doubled, v2)
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(magnitudes, return_counts=True)
        var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
        sigma = math.sqrt(var)
        p_less = _norm_sf(-(v - mu + 0.5) / sigma)
        p_greater = _norm_sf((v - mu - 0.5) / sigma)
    return TestReport("wilcoxon-signed-rank", v, _tailed(alternative, p_less, p_greater),
                      alternative, n)


# ---------------------------------------------------------------------------
# Paired t test (parametric branch)
# ---------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta, modified Lentz iteration.
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def paired_t_test(sample: PairedSample, alternative: str = "two-sided") -> TestReport:
    """Student's t test on the mean of the paired differences."""
    _check_alternative(alternative)
    diffs = sample.differences
    n = diffs.size
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("paired differences have zero variance")
    t, dof = float(diffs.mean()) / (sd / math.sqrt(n)), n - 1
    beyond = 0.5 * _betainc(dof / 2.0, 0.5, dof / (dof + t * t))  # P(T >= |t|)
    tails = (beyond, 1.0 - beyond) if t < 0 else (1.0 - beyond, beyond)
    return TestReport("paired-t", t, _tailed(alternative, *tails), alternative, n)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def normality_report(values) -> tuple[TestReport | None, str]:
    """The Shapiro-Wilk report, or None and why the sample cannot be screened:
    its size or its zero range.  A non-finite value raises."""
    require_finite(np.asarray(values, dtype=float), "Shapiro-Wilk sample")
    if not 3 <= np.size(values) <= 5000:  # no comma, as the report's rows are not quoted
        return None, f"Shapiro-Wilk needs 3 to 5000 values; got {np.size(values)}"
    try:
        return shapiro_wilk(values), ""
    except DegenerateSampleError:
        return None, "degenerate: zero variance"


def paired_report(a, b, alternative: str) -> tuple[TestReport | None, str]:
    """The paired test of ``a`` against ``b``, or None and why there is none.

    No test runs when every difference is zero.  The paired t test runs when
    a, b and a - b all pass ``normality_report`` at the 0.05 level, screened in
    that order up to the first failure; a sample it cannot screen fails.
    Otherwise the Wilcoxon signed-rank test runs.
    """
    sample = PairedSample(a, b)
    if not np.any(sample.differences):
        return None, "degenerate: all paired differences are zero"
    for values in (sample.a, sample.b, sample.differences):
        report = normality_report(values)[0]
        if report is None or report.p_value < 0.05:
            return wilcoxon_signed_rank(sample, alternative), ""
    return paired_t_test(sample, alternative), ""  # a - b varies, as it passed the screen
