"""Synthetic two-Gaussian, quarter-ordered time series and benchmark suites.

Every dataset is a pair of time-ordered splits (train/test).  Each split is
divided into four contiguous quarters whose class memberships alternate
(normal, anomalous, normal, anomalous), so the class signal is a low-frequency
square wave and the Gaussian feature noise rides on top of it.  Sweeping the
anomalous-class mean produces a family of datasets of increasing separability.

Conventions fixed here (and relied on everywhere downstream):

* class I (normal) instances carry label -1, class II (anomalous) +1;
* time indexes are 1-based and consecutive within a split;
* train and test splits are quartered independently;
* sampling uses numpy's PCG64 generator (``numpy.random.default_rng``),
  and a dataset draws both splits the first time either is read; the
  per-dataset seeds of a suite are derived from the suite seed by
  feeding ``SeedSequence([suite_seed, dataset_index])`` (numpy's entropy
  pooling) and drawing one 64-bit word.

Feature values are left on their natural scale; nothing here clips or
normalizes them.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from . import Record, whole_number, write_lines

NORMAL_LABEL = -1
ANOMALOUS_LABEL = 1

#: Features per instance (the DCA needs exactly two), the normal class's
#: nominal mean on each, and the per-feature noise of both classes.
N_FEATURES = 2
CLASS1_MEAN = 0.2
STDDEV = 0.1

#: Sweep width used by benchmark suites: anomalous-class means run from
#: ``CLASS1_MEAN`` (total overlap) to ``CLASS1_MEAN + SWEEP_WIDTH`` (well
#: separated).
SWEEP_WIDTH = 0.6


class GeneratorConfig(Record):
    """Parameters of one synthetic dataset.

    ``n_train`` and ``n_test`` must each be divisible by 4 so the quarter
    structure is exact.  Both features of a class share the same nominal
    mean, so the nominal centroid distance is
    ``sqrt(N_FEATURES) * (class2_mean - CLASS1_MEAN)``.
    """

    n_train = n_test = 1000  # the default split sizes

    def __init__(self, class2_mean: float, seed: int, n_train: int = n_train,
                 n_test: int = n_test) -> None:
        for name, n in (("n_train", n_train), ("n_test", n_test)):
            if whole_number(n, name, 1) % 4 != 0:
                raise ValueError(f"{name} must be a positive multiple of 4, got {n}")
        if not CLASS1_MEAN <= class2_mean < np.inf:
            raise ValueError(f"class2_mean must be finite and at least CLASS1_MEAN "
                             f"({CLASS1_MEAN}), got {class2_mean}")
        if (seed := whole_number(seed, "seed", 0)) >= 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
        self.class2_mean, self.seed, self.n_train, self.n_test = (
            class2_mean, seed, int(n_train), int(n_test))


def require_finite(values: np.ndarray, name: str) -> None:
    """Reject NaN and +-inf, naming the first one's time index (row + 1) and,
    in a feature block, its column (f1, f2, ...)."""
    if not np.isfinite(values).all():
        values = np.atleast_1d(values)  # a 0-d value is time index 1
        row, *col = bad = np.argwhere(~np.isfinite(values))[0].tolist()
        where = f"{name} f{col[0] + 1}" if col else name
        raise ValueError(f"{where} is {values[tuple(bad)]} at time index {row + 1}; must be finite")


def plus_minus_one(values) -> bool:
    """Whether every value equals -1 or +1, by comparison, so 1.5 and 1j fail."""
    return bool(np.all((values == -1) | (values == 1)))


def read_only(values, dtype) -> np.ndarray:
    """A private, unwritable copy, so checks made on it hold for its whole life."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


class InstanceSeries:
    """A time-ordered block of labeled instances: ``features`` (n, d) float and
    ``labels`` (n,) int8 values in {-1, +1}.

    Time indexes are implicit: instance ``i`` (0-based row) has time index
    ``i + 1``, which guarantees the consecutive, unique, 1-based invariant.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray) -> None:
        feats = read_only(features, float)
        labs = np.asarray(labels)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if feats.shape[0] == 0:
            raise ValueError("instance block is empty")
        require_finite(feats, "feature")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be 1-d and match the number of instances")
        if not plus_minus_one(labs):
            raise ValueError("labels must be -1 or +1")
        self.features, self.labels = feats, read_only(labs, np.int8)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


class Dataset:
    """A dataset's config; its splits are drawn on first read and kept."""

    def __init__(self, config: GeneratorConfig) -> None:
        self.config = config

    @cached_property
    def _splits(self) -> tuple[InstanceSeries, InstanceSeries]:
        # Train first, then test, from one generator: the layout of random
        # draws is part of the reproducibility contract.
        rng = np.random.default_rng(self.config.seed)
        train = _sample_split(rng, self.config.n_train, self.config)
        return train, _sample_split(rng, self.config.n_test, self.config)

    @property
    def train(self) -> InstanceSeries:
        return self._splits[0]

    @property
    def test(self) -> InstanceSeries:
        return self._splits[1]


def quarter_labels(n: int) -> np.ndarray:
    """Labels for an n-instance split: quarters of (-1, +1, -1, +1)."""
    if n <= 0 or n % 4 != 0:
        raise ValueError(f"split length must be a positive multiple of 4, got {n}")
    return np.repeat([NORMAL_LABEL, ANOMALOUS_LABEL] * 2, n // 4)


def _sample_split(rng: np.random.Generator, n: int, config: GeneratorConfig) -> InstanceSeries:
    labels = quarter_labels(n)
    means = np.where(labels[:, None] == ANOMALOUS_LABEL, config.class2_mean, CLASS1_MEAN)
    features = rng.standard_normal((n, N_FEATURES)) * STDDEV + means
    return InstanceSeries(features, labels)


def suite_member_seed(suite_seed: int, index: int) -> int:
    """Derive the dataset seed for one suite member from the suite seed."""
    ss = np.random.SeedSequence([whole_number(suite_seed, "suite seed", 0),
                                 whole_number(index, "dataset index", 0)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def generate_benchmark_suite(
    n_datasets: int, base: GeneratorConfig, seed: int
) -> list[Dataset]:
    """Generate the separability sweep: ``n_datasets`` datasets whose
    anomalous-class means are evenly spaced from ``CLASS1_MEAN`` to
    ``CLASS1_MEAN + SWEEP_WIDTH``.

    ``base.class2_mean`` is ignored; ``base.seed`` is replaced by a seed
    derived from ``seed`` and the dataset index.  No split is drawn here.
    """
    n_datasets = whole_number(n_datasets, "n_datasets", 2)
    step = SWEEP_WIDTH / (n_datasets - 1)
    return [
        Dataset(GeneratorConfig(CLASS1_MEAN + k * step, suite_member_seed(seed, k),
                                base.n_train, base.n_test))
        for k in range(n_datasets)
    ]


def centroid_distance(train: InstanceSeries, test: InstanceSeries) -> float:
    """Euclidean distance between the per-class feature means over train+test.
    A class's rows are summed in row order, train's then test's, as the mean
    of the stacked splits adds them, so each mean keeps its bits."""
    out = []
    for lab in (NORMAL_LABEL, ANOMALOUS_LABEL):
        rows = np.concatenate([s.features.compress(s.labels == lab, axis=0) for s in (train, test)])
        if not len(rows):
            raise ValueError(f"dataset has no instances with label {lab:+d}")
        out.append(np.cumsum(rows, axis=0)[-1] / len(rows))
    return float(np.linalg.norm(out[1] - out[0]))


def write_series_csv(series: InstanceSeries, path: Path) -> Path:
    header = ",".join(["time_index", *(f"f{j + 1}" for j in range(series.n_features)), "label"])
    rows = (",".join([str(i), *map(repr, row), str(lab)]) for i, (row, lab)
            in enumerate(zip(series.features.tolist(), series.labels.tolist()), 1))
    return write_lines(path, chain([header], rows))


def write_dataset_csv(
    dataset: Dataset, out_dir: Path, suite: str, index: int
) -> tuple[Path, Path]:
    """Write ``<suite>_<index>_train.csv`` and ``<suite>_<index>_test.csv``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return (write_series_csv(dataset.train, out_dir / f"{suite}_{index}_train.csv"),
            write_series_csv(dataset.test, out_dir / f"{suite}_{index}_test.csv"))
