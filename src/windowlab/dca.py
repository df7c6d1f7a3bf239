"""Deterministic dendritic-cell detector: preprocessing, cells, and labeling.

The detector is a population of accumulating agents ("cells") that all watch
the same two environmental signals.  Preprocessing turns the two raw features
of a labeled block into those signals: each feature is min-max normalized to
[0, 1] over the block, the feature more correlated with the anomalous class
becomes the danger signal, and the other becomes the safe signal, flipped
(s <- 1 - s) when it rises with anomalies so that a high safe value always
means "looks normal".

Each step every cell adds the instance's signal strength csm = safe + danger
to its running total and the signed evidence k = danger - safe to its tally.
When the running total reaches the cell's lifespan, the cell presents: every
instance seen since its last reset receives the tally as a vote, and the cell
resets.  Cells differ only in lifespan, so the population observes the series
over a ladder of time scales; leftover partial windows are flushed as a final
presentation so every instance is voted on by every cell.  An instance is
anomalous when the mean of its received votes is >= 0.

Their accumulate-and-reset behaviour gives each cell the same disjoint,
contiguous, covering window structure as the dynamic moving-window filter, with
csm as the score magnitude: each cell is one lane of edges from
``windows.budget_walk``, closing on reaching the lifespan where a dynamic
window stays within its budget.  A cell's vote in a window is a difference of
``windows.prefix_sums`` over k, the same window sum the filters sign.  A batch
of lanes adds its votes in one call, in the order of a window-by-window loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import ANOMALOUS_LABEL, InstanceSeries
from .windows import budget_ladder, budget_walk, prefix_sums, sign_labels


class NormalizationError(ValueError):
    """A feature is constant over the block, so min-max normalization is undefined."""


class DegenerateSignalError(ValueError):
    """All signal strengths are zero, so no lifespan ladder can be built."""


@dataclass(frozen=True, eq=False)
class SignalMapping:
    """How raw features were turned into safe/danger signals."""

    correlations: np.ndarray
    danger_feature: int
    safe_inverted: bool


@dataclass(frozen=True, eq=False)
class SignalSeries:
    """Per-instance safe and danger signals, in time order, each in [0, 1]."""

    safe: np.ndarray
    danger: np.ndarray
    mapping: SignalMapping

    def __len__(self) -> int:
        return self.safe.shape[0]


@dataclass(frozen=True)
class DendriticCell:
    """One agent, defined by its lifespan."""

    lifespan: float


@dataclass(frozen=True, eq=False)
class DCAPopulation:
    """Cells ordered by strictly increasing lifespan."""

    cells: tuple[DendriticCell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("population is empty")
        spans = [cell.lifespan for cell in self.cells]
        if spans[0] <= 0 or any(b <= a for a, b in zip(spans, spans[1:])):
            raise ValueError("lifespans must be positive and strictly increasing")

    @classmethod
    def from_lifespans(cls, lifespans) -> "DCAPopulation":
        return cls(tuple(DendriticCell(float(v)) for v in np.asarray(lifespans, dtype=float)))


def preprocess(series: InstanceSeries) -> SignalSeries:
    """Build safe/danger signals from a two-feature labeled block."""
    if len(series) == 0:
        raise ValueError("instance block is empty")
    if series.n_features != 2:
        raise ValueError(f"expected exactly 2 features, got {series.n_features}")
    feats = series.features
    lo = feats.min(axis=0)
    hi = feats.max(axis=0)
    span = hi - lo
    if np.any(span == 0):
        flat = int(np.flatnonzero(span == 0)[0])
        raise NormalizationError(f"feature {flat + 1} is constant; cannot normalize")
    norm = (feats - lo) / span

    anomalous = np.where(series.labels == ANOMALOUS_LABEL, 1.0, -1.0)
    if np.all(anomalous == anomalous[0]):
        raise ValueError("block contains a single class; correlations are undefined")
    correlations = np.array(
        [float(np.corrcoef(norm[:, j], anomalous)[0, 1]) for j in range(2)]
    )

    danger_idx = int(np.argmax(correlations))
    safe_idx = 1 - danger_idx
    danger = norm[:, danger_idx]
    safe = norm[:, safe_idx]
    invert = correlations[safe_idx] > 0
    if invert:
        safe = 1.0 - safe
    mapping = SignalMapping(correlations, danger_idx, bool(invert))
    return SignalSeries(safe=safe, danger=danger, mapping=mapping)


def signal_transform(safe, danger):
    """Per-step strength and evidence: csm = safe + danger, k = danger - safe."""
    safe = np.asarray(safe, dtype=float)
    danger = np.asarray(danger, dtype=float)
    return safe + danger, danger - safe


def init_lifespans(signals: SignalSeries, m: int, lam: float) -> np.ndarray:
    """Lifespan ladder max(csm) * (l/m) * lam for l = 1..m."""
    csm, _ = signal_transform(signals.safe, signals.danger)
    peak = float(np.max(csm)) if len(signals) else 0.0
    lifespans = budget_ladder(peak, m, lam)
    if peak <= 0.0:
        raise DegenerateSignalError("all signal strengths are zero; lifespans undefined")
    return lifespans


def run_dca_scores(signals: SignalSeries, population: DCAPopulation) -> np.ndarray:
    """Process the full series with every cell; per-instance vote sums."""
    n = len(signals)
    if n == 0:
        raise ValueError("signal series is empty")
    csm, k = signal_transform(signals.safe, signals.danger)
    cum_k = prefix_sums(k)

    # Range-add votes cell by cell, closings first: a window-by-window walk's add order.
    vote_diff, lifespans = np.zeros(n + 1), [c.lifespan for c in population.cells]
    for edges, starts in budget_walk(np.cumsum(csm), lifespans, "left"):
        c = cum_k[edges]
        votes = c[1:] - c[:-1]
        if len(starts) == 1:  # a lane's edges are distinct: gather, update, scatter
            d = vote_diff[edges]
            d[1:] -= votes
            d[:-1] += votes
            vote_diff[edges] = d
        else:  # the pair from a lane's end to the next start adds -0.0 at 0, a no-op
            votes[starts[1:] - 1] = 0.0
            np.add.at(vote_diff, np.repeat(edges, 2)[1:-1], np.stack([votes, -votes], 1).ravel())

    return np.cumsum(vote_diff[:-1])


def run_dca(signals: SignalSeries, population: DCAPopulation) -> np.ndarray:
    """Anomaly labels (+1 anomalous, -1 normal) for every instance.  Every cell
    votes on every instance, so the mean vote has the sign of the vote sum."""
    return sign_labels(run_dca_scores(signals, population))

