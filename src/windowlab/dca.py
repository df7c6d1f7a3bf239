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
csm as the magnitude that closes a window and k as the evidence summed in it.
So the population's vote sums are ``windows.ensemble_votes(csm, k, lifespans)``:
one lane per cell, closed by the "left" rule that ``windows`` documents, under
which a cell presents on reaching its lifespan.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .datagen import ANOMALOUS_LABEL, InstanceSeries, read_only, require_finite
from .windows import budget_ladder, ensemble_votes, sign_labels


class NormalizationError(ValueError):
    """A feature is constant over the block, so min-max normalization is undefined."""


class DegenerateSignalError(ValueError):
    """All signal strengths are zero, so no lifespan ladder can be built."""


class SignalMapping:
    """How raw features were turned into safe/danger signals."""

    def __init__(self, correlations: np.ndarray, danger_feature: int, safe_inverted: bool) -> None:
        self.correlations, self.danger_feature = correlations, danger_feature
        self.safe_inverted = safe_inverted


class SignalSeries:
    """Per-instance safe and danger signals, in time order, each in [0, 1]."""

    def __init__(self, safe: np.ndarray, danger: np.ndarray, mapping: SignalMapping) -> None:
        safe, danger = read_only(safe, float), read_only(danger, float)
        if safe.shape != danger.shape or safe.ndim != 1 or safe.size == 0:
            raise ValueError("safe and danger signals must be nonempty 1-d arrays of equal length")
        require_finite(safe, "safe signal")
        require_finite(danger, "danger signal")
        for name, values in (("safe", safe), ("danger", danger)):
            if (out := np.flatnonzero((values < 0.0) | (values > 1.0))).size:
                raise ValueError(f"{name} signal is {values[out[0]]} at time index {out[0] + 1}; "
                                 "must be in [0, 1]")
        self.safe, self.danger, self.mapping = safe, danger, mapping

    def __len__(self) -> int:
        return self.safe.shape[0]


class DendriticCell(NamedTuple):
    """One agent, defined by its lifespan."""

    lifespan: float


class DCAPopulation:
    """Cells ordered by strictly increasing lifespan."""

    def __init__(self, cells: tuple[DendriticCell, ...]) -> None:
        if not cells:
            raise ValueError("population is empty")
        spans = [cell.lifespan for cell in cells]
        if not spans[0] > 0 or not all(b > a for a, b in zip(spans, spans[1:])):
            raise ValueError("lifespans must be positive and strictly increasing")
        self.cells = cells

    @classmethod
    def from_lifespans(cls, lifespans) -> "DCAPopulation":
        return cls(tuple(map(DendriticCell, np.asarray(lifespans, dtype=float).tolist())))


def preprocess(series: InstanceSeries) -> SignalSeries:
    """Build safe/danger signals from a two-feature labeled block."""
    if series.n_features != 2:
        raise ValueError(f"expected exactly 2 features, got {series.n_features}")
    columns = series.features.T  # one column at a time is numpy's fast path
    lo = np.array([col.min() for col in columns])
    span = np.array([col.max() for col in columns]) - lo
    if np.any(span == 0):
        flat = int(np.flatnonzero(span == 0)[0])
        raise NormalizationError(f"feature {flat + 1} is constant; cannot normalize")
    norm = [(col - a) / b for col, a, b in zip(columns, lo, span)]

    anomalous = np.where(series.labels == ANOMALOUS_LABEL, 1.0, -1.0)
    if np.all(anomalous == anomalous[0]):
        raise ValueError("block contains a single class; correlations are undefined")
    correlations = np.array([float(np.corrcoef(col, anomalous)[0, 1]) for col in norm])

    danger_idx = int(np.argmax(correlations))
    safe_idx = 1 - danger_idx
    danger = norm[danger_idx]
    safe = norm[safe_idx]
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
    peak = float(np.max(csm))
    lifespans = budget_ladder(peak, m, lam)
    if peak <= 0.0:
        raise DegenerateSignalError("all signal strengths are zero; lifespans undefined")
    return lifespans


def run_dca_scores(signals: SignalSeries, population: DCAPopulation) -> np.ndarray:
    """Process the full series with every cell; per-instance vote sums."""
    csm, k = signal_transform(signals.safe, signals.danger)
    return ensemble_votes(csm, k, [c.lifespan for c in population.cells])


def run_dca(signals: SignalSeries, population: DCAPopulation) -> np.ndarray:
    """Anomaly labels (+1 anomalous, -1 normal) for every instance.  Every cell
    votes on every instance, so the mean vote has the sign of the vote sum."""
    return sign_labels(run_dca_scores(signals, population))

