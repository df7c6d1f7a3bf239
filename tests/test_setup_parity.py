"""Each dataset's set-up keeps the values of the formulas it replaced.

The centroid distance sums each class's rows in row order, train's then
test's, instead of stacking both splits and taking ``mean(axis=0)``;
``dca.preprocess`` takes each feature's range one column at a time; and the
label check of ``InstanceSeries`` compares with -1 and +1 instead of calling
``np.isin``, and the truth check of ``ScoreSeries`` is the same check.  Each
must agree with the reference formula on every input, bit for bit where it
yields floats.  ``np.linalg.norm`` in the centroid distance is a BLAS dot, so
these tests also run on a second BLAS kernel in CI.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from windowlab.datagen import Dataset, GeneratorConfig, InstanceSeries, centroid_distance
from windowlab.dca import preprocess
from windowlab.harness import ExperimentConfig, ResultsTable, run_experiment
from windowlab.svm import ScoreSeries

VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
LABELS = st.sampled_from([-1, 1])


@st.composite
def splits(draw, max_size=60):
    """One split: an (n, 2) feature block of arbitrary finite values and its labels."""
    n = draw(st.integers(1, max_size))
    features = draw(arrays(np.float64, (n, 2), elements=VALUES))
    labels = draw(arrays(np.int8, n, elements=LABELS))
    return InstanceSeries(features, labels)


def gaussian_split(rng, n, anomalous_share):
    labels = np.where(rng.random(n) < anomalous_share, 1, -1)
    return InstanceSeries(rng.standard_normal((n, 2)) * 0.1 + (labels[:, None] > 0) * 0.3, labels)


class TestCentroidParity:
    @given(splits(), splits())
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_splits_of_unequal_sizes(self, train, test):
        labels = np.concatenate([train.labels, test.labels])
        assume((labels == -1).any() and (labels == 1).any())
        assert centroid_distance(train, test) == oracles.centroid_distance(train, test)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 300),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_gaussian_splits_with_uneven_classes(self, seed, n_train, n_test, share_train,
                                                 share_test):
        rng = np.random.default_rng(seed)
        train = gaussian_split(rng, n_train, share_train)
        test = gaussian_split(rng, n_test, share_test)
        labels = np.concatenate([train.labels, test.labels])
        assume((labels == -1).any() and (labels == 1).any())
        assert centroid_distance(train, test) == oracles.centroid_distance(train, test)

    @pytest.mark.parametrize("train_labels, test_labels", [
        ([-1] * 6, [-1, 1, 1, -1]),  # +1 only in test
        ([1, 1, -1, 1], [1] * 5),  # -1 only in train
        ([1] * 7, [-1] * 3),  # each class in one split
    ])
    def test_a_class_missing_from_one_split(self, train_labels, test_labels):
        rng = np.random.default_rng(len(train_labels))
        train = InstanceSeries(rng.standard_normal((len(train_labels), 2)), train_labels)
        test = InstanceSeries(rng.standard_normal((len(test_labels), 2)), test_labels)
        assert centroid_distance(train, test) == oracles.centroid_distance(train, test)

    @pytest.mark.parametrize("seed, n_train, n_test", [(1, 8000, 8000), (2, 8000, 4000),
                                                       (3, 4000, 8000)])
    def test_long_splits(self, seed, n_train, n_test):
        for mean in (0.2, 0.5, 0.8):
            ds = Dataset(GeneratorConfig(mean, seed=seed, n_train=n_train, n_test=n_test))
            assert centroid_distance(ds.train, ds.test) == oracles.centroid_distance(ds.train, ds.test)


class TestPreprocessParity:
    @given(splits(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_ranges_are_the_axis_0_min_and_max(self, series):
        feats = series.features
        lo, hi = feats.min(axis=0), feats.max(axis=0)
        assume((hi > lo).all() and (series.labels == 1).any() and (series.labels == -1).any())
        norm = (feats - lo) / (hi - lo)
        sig = preprocess(series)
        indicator = np.where(series.labels == 1, 1.0, -1.0)
        expected = [float(np.corrcoef(norm[:, j], indicator)[0, 1]) for j in range(2)]
        assert sig.mapping.correlations.tolist() == expected
        danger, safe = norm[:, sig.mapping.danger_feature], norm[:, 1 - sig.mapping.danger_feature]
        if sig.mapping.safe_inverted:
            safe = 1.0 - safe
        assert sig.danger.tobytes() == danger.tobytes() and sig.safe.tobytes() == safe.tobytes()

    @pytest.mark.parametrize("n", [1000, 8000])
    def test_generated_blocks_keep_their_bytes(self, n):
        for seed in range(3):
            series = Dataset(GeneratorConfig(0.5, seed=seed, n_train=4, n_test=n)).test
            feats = series.features
            norm = (feats - feats.min(axis=0)) / (feats.max(axis=0) - feats.min(axis=0))
            sig = preprocess(series)
            safe = norm[:, 1 - sig.mapping.danger_feature]
            assert sig.danger.tobytes() == norm[:, sig.mapping.danger_feature].tobytes()
            assert sig.safe.tobytes() == (1.0 - safe if sig.mapping.safe_inverted else safe).tobytes()


def isin_accepts(labels) -> bool:
    return bool(np.all(np.isin(labels, (-1, 1))))


def check_accepts(labels) -> bool:
    try:
        InstanceSeries(np.zeros((len(labels), 2)), labels)
    except ValueError as exc:
        assert str(exc) == "labels must be -1 or +1"
        return False
    return True


LABEL_ARRAYS = [
    np.array([255], dtype=np.uint8),
    np.array([1, 255], dtype=np.uint8),
    np.array([1, 1], dtype=np.uint8),
    np.array([65535, 1], dtype=np.uint16),
    np.array([-1.0, 0.5]),
    np.array([-1.0, np.nan]),
    np.array([-1.0, 1.0]),
    np.array([True, True]),
    np.array([False, True]),
    np.array([-1, 1], dtype=object),
    np.array([-1.0, True], dtype=object),
    np.array(["a", 1], dtype=object),
    np.array([None, 1], dtype=object),
    np.array([1j, 1]),
]


def score_series_accepts(labels) -> bool:
    try:
        ScoreSeries(np.zeros(len(labels)), labels)
    except ValueError as exc:
        assert str(exc) == "score series must be nonempty, with truth labels -1 or +1"
        return False
    return True


class TestLabelCheckParity:
    @pytest.mark.parametrize("labels", LABEL_ARRAYS, ids=repr)
    def test_accepts_exactly_what_isin_accepts(self, labels):
        assert check_accepts(labels) == isin_accepts(labels)

    @pytest.mark.parametrize("labels", LABEL_ARRAYS, ids=repr)
    def test_score_series_checks_truths_as_instance_series_checks_labels(self, labels):
        assert score_series_accepts(labels) == check_accepts(labels)

    @given(st.lists(st.sampled_from([-1, 1, 0, 2, 127, -128, 255, 257, -255]), min_size=1,
                    max_size=8),
           st.sampled_from([np.int8, np.uint8, np.int16, np.uint16, np.int64, np.float64]))
    @settings(max_examples=200, deadline=None)
    def test_labels_of_every_integer_width(self, values, dtype):
        labels = np.array(values).astype(dtype)  # wraps: -1 as uint8 is 255
        assert check_accepts(labels) == isin_accepts(labels) == score_series_accepts(labels)


class TestErrorRateCells:
    def test_every_cell_parses_as_a_plain_float(self, tmp_path):
        # An np.float64 error rate would be written as "np.float64(0.515)".
        config = ExperimentConfig(seed=3, n_datasets=3, n_train=200, n_test=200, window_grid=10,
                                  threshold_grid=10)
        table = run_experiment(config)
        assert all(type(row.error_rate) is float for row in table.rows)
        lines = table.write_csv(tmp_path / "error_rates.csv").read_text().splitlines()
        for line in lines[1:]:
            _, distance, _, error, tuned = line.split(",")
            for cell in (distance, error, tuned or "0.0"):
                assert repr(float(cell)) == cell
        assert ResultsTable.read_csv(tmp_path / "error_rates.csv") == table
