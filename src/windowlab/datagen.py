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
* sampling uses numpy's PCG64 generator (``numpy.random.default_rng``);
  the per-dataset seeds of a suite are derived from the suite seed by
  feeding ``SeedSequence([suite_seed, dataset_index])`` (numpy's entropy
  pooling) and drawing one 64-bit word.

Feature values are left on their natural scale; nothing here clips or
normalizes them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

NORMAL_LABEL = -1
ANOMALOUS_LABEL = 1

#: Nominal mean of the normal class and the sweep width used by benchmark
#: suites: anomalous-class means run from ``class1_mean`` (total overlap) to
#: ``class1_mean + SWEEP_WIDTH`` (well separated).
SWEEP_WIDTH = 0.6


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one synthetic dataset.

    ``n_train`` and ``n_test`` must each be divisible by 4 so the quarter
    structure is exact.  Both features of a class share the same nominal
    mean, so the nominal centroid distance is
    ``sqrt(n_features) * (class2_mean - class1_mean)``.
    """

    class2_mean: float
    seed: int
    n_train: int = 1000
    n_test: int = 1000
    n_features: int = 2
    class1_mean: float = 0.2
    stddev: float = 0.1

    def __post_init__(self) -> None:
        for name, n in (("n_train", self.n_train), ("n_test", self.n_test)):
            if n <= 0 or n % 4 != 0:
                raise ValueError(f"{name} must be a positive multiple of 4, got {n}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if not self.stddev > 0:
            raise ValueError(f"stddev must be > 0, got {self.stddev}")
        if self.class2_mean < self.class1_mean:
            raise ValueError(
                f"class2_mean ({self.class2_mean}) must not be below "
                f"class1_mean ({self.class1_mean})"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")


def require_finite(values: np.ndarray, name: str) -> None:
    """Reject NaN and +-inf, naming the first one's time index (row + 1) and,
    in a feature block, its column (f1, f2, ...)."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, *col = bad[0].tolist()
        where = f"{name} f{col[0] + 1}" if col else name
        value = values[tuple(bad[0])]
        raise ValueError(f"{where} is {value} at time index {row + 1}; must be finite")


def read_only(values, dtype) -> np.ndarray:
    """A private, unwritable copy, so checks made on it hold for its whole life."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class InstanceSeries:
    """A time-ordered block of labeled instances.

    Time indexes are implicit: instance ``i`` (0-based row) has time index
    ``i + 1``, which guarantees the consecutive, unique, 1-based invariant.
    """

    features: np.ndarray  # (n, d) float
    labels: np.ndarray  # (n,) values in {-1, +1}

    def __post_init__(self) -> None:
        feats = read_only(self.features, float)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d array")
        require_finite(feats, "feature")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be 1-d and match the number of instances")
        if labs.size and not np.all(np.isin(labs, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", read_only(labs, int))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def time_index(self) -> np.ndarray:
        return np.arange(1, len(self) + 1)


@dataclass(frozen=True, eq=False)
class Dataset:
    train: InstanceSeries
    test: InstanceSeries
    config: GeneratorConfig


def quarter_labels(n: int) -> np.ndarray:
    """Labels for an n-instance split: quarters of (-1, +1, -1, +1)."""
    if n <= 0 or n % 4 != 0:
        raise ValueError(f"split length must be a positive multiple of 4, got {n}")
    q = n // 4
    return np.tile(np.repeat([NORMAL_LABEL, ANOMALOUS_LABEL], q), 2)


def _sample_split(rng: np.random.Generator, n: int, config: GeneratorConfig) -> InstanceSeries:
    labels = quarter_labels(n)
    means = np.where(labels[:, None] == ANOMALOUS_LABEL, config.class2_mean, config.class1_mean)
    features = rng.standard_normal((n, config.n_features)) * config.stddev + means
    return InstanceSeries(features, labels)


def generate_dataset(config: GeneratorConfig) -> Dataset:
    """Draw one dataset; identical configs produce bit-identical datasets.

    The train split is drawn first, then the test split, each as a single
    standard-normal block, so the layout of random draws is part of the
    reproducibility contract.
    """
    rng = np.random.default_rng(config.seed)
    train = _sample_split(rng, config.n_train, config)
    test = _sample_split(rng, config.n_test, config)
    return Dataset(train, test, config)


def suite_member_seed(suite_seed: int, index: int) -> int:
    """Derive the dataset seed for one suite member from the suite seed."""
    ss = np.random.SeedSequence([int(suite_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def generate_benchmark_suite(
    n_datasets: int, base: GeneratorConfig, seed: int
) -> list[Dataset]:
    """Generate the separability sweep: ``n_datasets`` datasets whose
    anomalous-class means are evenly spaced from ``base.class1_mean`` to
    ``base.class1_mean + SWEEP_WIDTH``.

    ``base.class2_mean`` is ignored; ``base.seed`` is replaced by a seed
    derived from ``seed`` and the dataset index.
    """
    if n_datasets < 2:
        raise ValueError(f"a benchmark suite needs at least 2 datasets, got {n_datasets}")
    step = SWEEP_WIDTH / (n_datasets - 1)
    suite = []
    for k in range(n_datasets):
        cfg = replace(
            base,
            class2_mean=base.class1_mean + k * step,
            seed=suite_member_seed(seed, k),
        )
        suite.append(generate_dataset(cfg))
    return suite


def centroid_distance(dataset: Dataset) -> float:
    """Euclidean distance between the per-class feature means over train+test."""
    feats = np.vstack([dataset.train.features, dataset.test.features])
    labs = np.concatenate([dataset.train.labels, dataset.test.labels])
    out = []
    for lab in (NORMAL_LABEL, ANOMALOUS_LABEL):
        mask = labs == lab
        if not mask.any():
            raise ValueError(f"dataset has no instances with label {lab:+d}")
        out.append(feats[mask].mean(axis=0))
    return float(np.linalg.norm(out[1] - out[0]))


def _series_header(n_features: int) -> list[str]:
    return ["time_index"] + [f"f{j + 1}" for j in range(n_features)] + ["label"]


def write_series_csv(series: InstanceSeries, path: Path) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_series_header(series.n_features))
        for i, (row, lab) in enumerate(zip(series.features, series.labels)):
            writer.writerow([i + 1] + [repr(float(v)) for v in row] + [int(lab)])
    return path


def read_series_csv(path: Path) -> InstanceSeries:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = len(header) - 2
        feats, labs = [], []
        for expected, row in enumerate(reader, start=1):
            if int(row[0]) != expected:
                raise ValueError(f"non-consecutive time_index {row[0]} in {path}")
            feats.append([float(v) for v in row[1 : 1 + d]])
            labs.append(int(row[-1]))
    return InstanceSeries(np.array(feats, dtype=float).reshape(len(labs), d), np.array(labs))


def write_dataset_csv(
    dataset: Dataset, out_dir: Path, suite: str, index: int
) -> tuple[Path, Path]:
    """Write ``<suite>_<index>_train.csv`` and ``<suite>_<index>_test.csv``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = write_series_csv(dataset.train, out_dir / f"{suite}_{index}_train.csv")
    test_path = write_series_csv(dataset.test, out_dir / f"{suite}_{index}_test.csv")
    return train_path, test_path
