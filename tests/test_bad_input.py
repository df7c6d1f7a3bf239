"""Bad input fails fast and by name, wherever it enters the pipeline.

A small valid split gets one defect.  Building the split rejects what a split
cannot hold (non-finite features, no rows); what it can hold is rejected by the
first consumer that cannot use it: ``dca.preprocess`` (a constant feature, a
single class) or ``svm.train`` (a single class).  Score series get the same
treatment: building one rejects non-finite scores, no rows and bad truths, and
``make_threshold_grid`` rejects all-zero scores.  Building a DCA signal series
rejects non-finite signals, no rows, safe and danger of different lengths
and signals outside [0, 1].  A static window width that is not a whole number
is rejected wherever it enters: a width grid, ``static_label`` and a tuned
filter's ``apply``.  An experiment's or a dataset's seed and sizes that are
not whole numbers, a split size that is not a multiple of 4, and a dataset's
class mean that is not finite, are rejected when its config is built.
"""

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windowlab import dca
from windowlab.datagen import Dataset, GeneratorConfig, InstanceSeries
from windowlab.harness import ExperimentConfig
from windowlab.svm import ScoreSeries, score_series, train
from windowlab.windows import (
    TunedFilter,
    WindowSizeGrid,
    apply,
    default_size_grid,
    make_threshold_grid,
    static_label,
    tune_dynamic,
    tune_static,
)

FINITE = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
UNIT = st.floats(min_value=0, max_value=1)  # a valid signal
OUTSIDE_UNIT = st.floats(-10, -1e-12) | st.floats(1 + 1e-12, 10)


def filters(scores: ScoreSeries) -> None:
    """Tune both moving-window filters, as the harness does."""
    tune_static(scores, default_size_grid(4))
    tune_dynamic(scores, make_threshold_grid(scores, 4, 1.0))


def svm_path(split: InstanceSeries) -> None:
    """Train, score the split and tune both filters on its scores."""
    filters(score_series(train(split, C=1.0), split))


# Each defect: the words that must name it, and the consumers that must reject
# it once the split is built (none: building the split must reject it).
SPLIT_DEFECTS = {
    "nan": (r"feature f\d is nan at time index \d+", ()),
    "inf": (r"feature f\d is inf at time index \d+", ()),
    "-inf": (r"feature f\d is -inf at time index \d+", ()),
    "no rows": ("instance block is empty", ()),
    "constant feature": (r"feature \d is constant", (dca.preprocess,)),
    "single class": (r"both classes|single class", (svm_path, dca.preprocess)),
}

SCORE_DEFECTS = {
    "nan": (r"score is nan at time index \d+", ()),
    "inf": (r"score is inf at time index \d+", ()),
    "-inf": (r"score is -inf at time index \d+", ()),
    "no rows": ("score series must be nonempty", ()),
    "truth 0": (r"truth labels -1 or \+1", ()),
    "all-zero scores": ("all scores are zero", (filters,)),
}

SIGNAL_DEFECTS = {
    "nan": (r"(safe|danger) signal is nan at time index \d+", ()),
    "inf": (r"(safe|danger) signal is inf at time index \d+", ()),
    "-inf": (r"(safe|danger) signal is -inf at time index \d+", ()),
    "no rows": ("signals must be nonempty", ()),
    "lengths differ": ("arrays of equal length", ()),
    "outside [0, 1]": (r"(safe|danger) signal is \S+ at time index \d+; must be in \[0, 1\]", ()),
}


def rejects(action, pattern: str) -> None:
    start = time.perf_counter()
    with pytest.raises(ValueError, match=pattern):
        action()
    assert time.perf_counter() - start < 1.0


def assert_rejected(build, consumers, pattern: str) -> None:
    """With no consumers, building raises naming the defect; otherwise each consumer does."""
    if not consumers:
        return rejects(build, pattern)
    built = build()
    for consumer in consumers:
        rejects(lambda: consumer(built), pattern)


@st.composite
def valid_splits(draw):
    """Features with a spread in each column, and labels of both classes."""
    n = draw(st.integers(min_value=4, max_value=40))
    feats = np.array(draw(st.lists(st.tuples(FINITE, FINITE), min_size=n, max_size=n)))
    feats[:2] = [[-11.0, 11.0], [11.0, -11.0]]  # outside FINITE's range: no column is constant
    labels = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    labels[:2] = [-1, 1]
    return feats, labels


def spoil_split(feats, labels, defect, row, col):
    """One defect at ``row`` (and feature ``col``) of a valid split."""
    if defect in ("nan", "inf", "-inf"):
        feats[row, col] = float(defect)
    elif defect == "no rows":
        feats, labels = feats[:0], labels[:0]
    elif defect == "constant feature":
        feats[:, col] = feats[row, col]
    else:
        labels[:] = labels[row]
    return feats, labels


class TestBadSplit:
    @given(valid_splits(), st.sampled_from(sorted(SPLIT_DEFECTS)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_each_defect_is_named_within_a_second(self, split, defect, data):
        feats, labels = split
        row = data.draw(st.integers(0, len(labels) - 1), "row")
        col = data.draw(st.integers(0, 1), "col")
        feats, labels = spoil_split(feats, labels, defect, row, col)
        pattern, consumers = SPLIT_DEFECTS[defect]
        assert_rejected(lambda: InstanceSeries(feats, labels), consumers, pattern)


class TestBadScores:
    @given(
        st.lists(FINITE, min_size=1, max_size=40),
        st.sampled_from(sorted(SCORE_DEFECTS)),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_defect_is_named_within_a_second(self, scores, defect, data):
        scores = np.array(scores)
        truths = np.where(scores >= 0, 1, -1)
        row = data.draw(st.integers(0, len(scores) - 1), "row")
        if defect in ("nan", "inf", "-inf"):
            scores[row] = float(defect)
        elif defect == "no rows":
            scores, truths = scores[:0], truths[:0]
        elif defect == "truth 0":
            truths[row] = 0
        else:
            scores[:] = 0.0
        pattern, consumers = SCORE_DEFECTS[defect]
        assert_rejected(lambda: ScoreSeries(scores, truths), consumers, pattern)


class TestBadSignals:
    @given(
        st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=40),
        st.sampled_from(sorted(SIGNAL_DEFECTS)),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_defect_is_named_within_a_second(self, pairs, defect, data):
        safe, danger = np.array(pairs).T
        row = data.draw(st.integers(0, len(safe) - 1), "row")
        if defect in ("nan", "inf", "-inf"):
            data.draw(st.sampled_from([safe, danger]), "signal")[row] = float(defect)
        elif defect == "no rows":
            safe, danger = safe[:0], danger[:0]
        elif defect == "outside [0, 1]":
            value = data.draw(OUTSIDE_UNIT, "value")
            data.draw(st.sampled_from([safe, danger]), "signal")[row] = value
        else:
            danger = np.delete(danger, row)
        mapping = dca.SignalMapping(np.array([1.0, 0.0]), 0, False)
        pattern, consumers = SIGNAL_DEFECTS[defect]
        assert_rejected(lambda: dca.SignalSeries(safe, danger, mapping), consumers, pattern)


class TestBadWidth:
    @pytest.mark.parametrize("width", [2.5, -0.5, 1e-9, float("nan"), float("inf")])
    def test_a_width_that_is_not_whole_is_named_where_it_enters(self, width):
        # It used to be truncated (a grid of (2.5, 3) became (2, 3), and apply
        # labelled with width 2) or to fail inside NumPy without a name.
        scores = ScoreSeries([0.5, -1.0, 2.0, -0.25], [1, -1, 1, 1])
        pattern = f"window sizes must be whole numbers >= 1, got {width}"
        rejects(lambda: WindowSizeGrid((width, 3)), pattern)
        rejects(lambda: static_label(scores, width), pattern)
        rejects(lambda: apply(TunedFilter("static", width, 0.0), scores), pattern)
        assert WindowSizeGrid((3.0, np.int64(2))).sizes == (2, 3)
        whole = static_label(scores, 3)
        assert np.array_equal(static_label(scores, 3.0), whole)
        assert np.array_equal(apply(TunedFilter("static", np.int64(3), 0.0), scores), whole)


class TestBadConfig:
    @pytest.mark.parametrize("setting, least", [("seed", 0), ("n_datasets", 2), ("n_train", 1),
                                                ("n_test", 1)])
    @pytest.mark.parametrize("value", [2.5, -4.0, float("nan"), float("inf")])
    def test_a_seed_or_size_out_of_whole_range_is_named(self, setting, least, value):
        # seed=1.5 used to run seed 1's suite; a size of 2.5 failed at the first
        # dataset with a bare TypeError
        pattern = re.escape(f"{setting} must be a whole number >= {least}, got {value}")
        rejects(lambda: ExperimentConfig(**{"seed": 1, setting: value}), pattern)

    @pytest.mark.parametrize("setting, value, shown", [
        ("seed", "5", "'5'"), ("n_datasets", "3", "'3'"), ("seed", None, "None"),
        ("seed", True, "True"), ("seed", np.True_, "True"), ("window_grid", [4], "[4]"),
    ])
    def test_a_setting_that_is_not_a_number_is_named(self, setting, value, shown):
        # "5" used to raise a bare TypeError from ">=", None one from float(),
        # and True ran seed 1
        least = {"n_datasets": 2, "window_grid": 1}.get(setting, 0)
        pattern = re.escape(f"{setting} must be a whole number >= {least}, got {shown}")
        rejects(lambda: ExperimentConfig(**{"seed": 1, setting: value}), pattern)

    def test_whole_floats_are_used_as_integers(self):
        cfg = ExperimentConfig(seed=7.0, n_datasets=2.0, n_train=8.0, n_test=12.0)
        got = cfg.seed, cfg.n_datasets, cfg.n_train, cfg.n_test
        assert got == (7, 2, 8, 12) and all(type(v) is int for v in got)
        assert [len(ds.train) + len(ds.test) for ds in cfg.datasets()] == [20, 20]
        # a whole seed past the largest float is a valid SeedSequence entropy
        assert ExperimentConfig(seed=2**1100).seed == 2**1100

    @pytest.mark.parametrize("setting", ["n_train", "n_test"])
    def test_a_split_size_that_is_no_multiple_of_4_is_named(self, setting):
        # 10 used to pass here and fail only once the suite was built
        pattern = re.escape(f"{setting} must be a positive multiple of 4, got 10")
        rejects(lambda: ExperimentConfig(**{"seed": 1, setting: 10}), pattern)

    def test_the_split_sizes_are_its_kept_generator_config_s(self):
        cfg = ExperimentConfig(seed=1, n_train=8.0, n_test=12)
        base = cfg.base_generator_config()
        assert base is cfg.base_generator_config()
        assert (cfg.n_train, cfg.n_test) == (base.n_train, base.n_test) == (8, 12)


class TestBadGeneratorConfig:
    @pytest.mark.parametrize("setting, least, value", [("seed", 0, 1.5), ("seed", 0, -2.0),
                                                       ("n_train", 1, 2.5), ("n_test", 1, -4.0),
                                                       ("n_train", 1, float("nan"))])
    def test_a_seed_or_split_size_that_is_not_whole_is_named(self, setting, least, value):
        # seed=1.5 used to fail at the first split read with a bare TypeError
        pattern = re.escape(f"{setting} must be a whole number >= {least}, got {value}")
        rejects(lambda: GeneratorConfig(**{"class2_mean": 0.5, "seed": 1, setting: value}), pattern)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_a_class_mean_that_is_not_finite_is_named(self, mean):
        # nan used to fail at the first split read as "feature f1 is nan at time index 251"
        pattern = f"class2_mean must be finite and at least CLASS1_MEAN (0.2), got {mean}"
        rejects(lambda: GeneratorConfig(mean, seed=1), re.escape(pattern))

    def test_whole_floats_are_used_as_integers(self):
        # n_train=1000.0 used to fail at the first split read with a bare TypeError
        cfg = GeneratorConfig(0.5, seed=7.0, n_train=1000.0, n_test=12.0)
        got = cfg.seed, cfg.n_train, cfg.n_test
        assert got == (7, 1000, 12) and all(type(v) is int for v in got)
        drawn, whole = Dataset(cfg), Dataset(GeneratorConfig(0.5, seed=7, n_train=1000, n_test=12))
        for a, b in ((drawn.train, whole.train), (drawn.test, whole.test)):
            assert a.features.tobytes() == b.features.tobytes()
