import math
import re
import tracemalloc

import numpy as np
import pytest

from windowlab.datagen import (
    Dataset,
    GeneratorConfig,
    InstanceSeries,
    centroid_distance,
    generate_benchmark_suite,
    quarter_labels,
    suite_member_seed,
    write_dataset_csv,
)


def small_config(**kwargs):
    base = dict(class2_mean=0.5, seed=42, n_train=200, n_test=200)
    base.update(kwargs)
    return GeneratorConfig(**base)


class TestConfigValidation:
    def test_rejects_n_train_not_divisible_by_4(self):
        with pytest.raises(ValueError, match="n_train"):
            small_config(n_train=202)

    def test_rejects_n_test_not_divisible_by_4(self):
        with pytest.raises(ValueError, match="n_test"):
            small_config(n_test=9)

    def test_rejects_class2_below_class1(self):
        with pytest.raises(ValueError, match="class2_mean"):
            small_config(class2_mean=0.1)

    def test_rejects_seed_out_of_range(self):
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=-1)


class TestQuarterStructure:
    def test_eight_instance_label_pattern(self):
        ds = Dataset(GeneratorConfig(class2_mean=0.5, seed=1, n_train=8, n_test=8))
        assert list(ds.train.labels) == [-1, -1, 1, 1, -1, -1, 1, 1]
        assert list(ds.test.labels) == [-1, -1, 1, 1, -1, -1, 1, 1]

    def test_label_balance(self):
        ds = Dataset(small_config())
        for split in (ds.train, ds.test):
            assert int((split.labels == 1).sum()) == len(split) // 2
            assert int((split.labels == -1).sum()) == len(split) // 2

    def test_quarter_labels_rejects_bad_length(self):
        with pytest.raises(ValueError):
            quarter_labels(10)


class TestSampling:
    def test_bit_identical_for_equal_configs(self):
        a = Dataset(small_config())
        b = Dataset(small_config())
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.features, b.test.features)

    def test_reading_test_first_gives_the_same_bytes(self):
        usual, reversed_ = Dataset(small_config()), Dataset(small_config())
        first = (usual.train, usual.test)
        test, train = reversed_.test, reversed_.train
        for a, b in zip(first, (train, test)):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()

    def test_splits_are_drawn_once(self):
        ds = Dataset(small_config())
        assert ds.train is ds.train and ds.test is ds.test

    def test_different_seeds_differ(self):
        a = Dataset(small_config(seed=1))
        b = Dataset(small_config(seed=2))
        assert not np.array_equal(a.train.features, b.train.features)

    def test_class_conditional_means(self):
        # Law of large numbers: per-feature sample means land within
        # ~3 * stddev / sqrt(n_class) of the nominal means.
        ds = Dataset(GeneratorConfig(class2_mean=0.8, seed=5))
        feats, labs = ds.train.features, ds.train.labels
        tol = 0.01
        for j in range(2):
            assert abs(feats[labs == 1, j].mean() - 0.8) < tol
            assert abs(feats[labs == -1, j].mean() - 0.2) < tol


class TestBenchmarkSuite:
    def test_endpoint_means(self):
        suite = generate_benchmark_suite(100, small_config(n_train=8, n_test=8), seed=3)
        assert suite[0].config.class2_mean == pytest.approx(0.2)
        assert suite[-1].config.class2_mean == pytest.approx(0.8)

    def test_two_dataset_suite_hits_both_endpoints(self):
        suite = generate_benchmark_suite(2, small_config(n_train=8, n_test=8), seed=3)
        assert [d.config.class2_mean for d in suite] == pytest.approx([0.2, 0.8])

    def test_regular_step(self):
        suite = generate_benchmark_suite(100, small_config(n_train=8, n_test=8), seed=3)
        means = [d.config.class2_mean for d in suite]
        steps = np.diff(means)
        assert steps == pytest.approx([0.6 / 99] * 99)
        assert steps[0] == pytest.approx(0.0060606, abs=1e-6)

    def test_rejects_tiny_suite(self):
        with pytest.raises(ValueError):
            generate_benchmark_suite(1, small_config(), seed=3)

    def test_rejects_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="suite seed must be a whole number >= 0, got -1"):
            generate_benchmark_suite(2, small_config(), -1)

    @pytest.mark.parametrize("setting, value, message", [
        ("seed", 1.5, "suite seed must be a whole number >= 0, got 1.5"),
        ("seed", float("nan"), "suite seed must be a whole number >= 0, got nan"),
        ("n_datasets", 2.5, "n_datasets must be a whole number >= 2, got 2.5"),
    ], ids=["seed-1.5", "seed-nan", "datasets-2.5"])
    def test_rejects_a_count_or_seed_that_is_not_whole_by_name(self, setting, value, message):
        # 1.5 used to return seed 1's suite, 2.5 datasets failed with a bare
        # TypeError and a nan seed as "cannot convert float NaN to integer"
        args = {"n_datasets": 3, "base": small_config(), "seed": 1, setting: value}
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_benchmark_suite(**args)

    def test_member_seeds_are_deterministic_and_distinct(self):
        seeds = [suite_member_seed(99, k) for k in range(10)]
        assert seeds == [suite_member_seed(99, k) for k in range(10)]
        assert len(set(seeds)) == 10

    def test_suite_reruns_identically(self):
        a = generate_benchmark_suite(3, small_config(), seed=17)
        b = generate_benchmark_suite(3, small_config(), seed=17)
        for da, db in zip(a, b):
            assert np.array_equal(da.train.features, db.train.features)

    def test_centroid_distance_nondecreasing_within_noise(self):
        suite = generate_benchmark_suite(8, small_config(), seed=11)
        dists = [centroid_distance(d.train, d.test) for d in suite]
        slack = 3 * 0.1 * math.sqrt(2 / 200)
        assert all(b - a > -slack for a, b in zip(dists, dists[1:]))

    def test_memory_is_two_float_features_and_a_byte_label_per_instance(self):
        # 17 B per instance are held; the slack covers one 8,000-row split's
        # temporaries (about 400 KB).  int64 labels would hold 24 B.  Splits
        # are drawn when first read, so every one is read inside the trace.
        base = small_config(n_train=8000, n_test=8000)
        warm = generate_benchmark_suite(2, small_config(n_train=8, n_test=8), seed=5)
        assert len(warm[0].train) == 8  # warm caches, the draw's included
        tracemalloc.start()
        try:
            suite = generate_benchmark_suite(4, base, seed=5)
            instances = sum(len(ds.train) + len(ds.test) for ds in suite)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert instances == 64_000
        assert peak < 18 * instances + 512 * 1024

    def test_generating_a_suite_draws_no_split(self):
        # Less than one 8,000-row split's feature block (128,000 B) for four
        # datasets: their splits wait for their first read.
        base = small_config(n_train=8000, n_test=8000)
        generate_benchmark_suite(2, small_config(n_train=8, n_test=8), seed=5)  # warm caches
        tracemalloc.start()
        try:
            suite = generate_benchmark_suite(4, base, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(suite) == 4
        assert peak < 16 * 8000


class TestCentroidDistance:
    def test_identical_distributions_near_zero(self):
        ds = Dataset(GeneratorConfig(class2_mean=0.2, seed=2))
        assert centroid_distance(ds.train, ds.test) < 3 * 0.1 * math.sqrt(2 / 1000) * 3

    def test_nominal_separated_distance(self):
        ds = Dataset(GeneratorConfig(class2_mean=0.8, seed=2))
        assert centroid_distance(ds.train, ds.test) == pytest.approx(0.6 * math.sqrt(2), abs=0.02)

    @pytest.mark.parametrize(
        "delta,expected", [(0.1202, 0.17), (0.2970, 0.42), (0.4808, 0.68)]
    )
    def test_reference_sweep_distances(self, delta, expected):
        # The nominal centroid distance is sqrt(2) * (class2 - class1); the
        # empirical one should track it within sampling noise.
        assert math.sqrt(2) * delta == pytest.approx(expected, abs=0.005)
        ds = Dataset(GeneratorConfig(class2_mean=0.2 + delta, seed=4))
        assert centroid_distance(ds.train, ds.test) == pytest.approx(expected, abs=0.02)

    def test_single_class_rejected(self):
        ds = Dataset(small_config(n_train=8, n_test=8))
        anomalous = ds.train.labels == 1
        lop = InstanceSeries(ds.train.features[anomalous], ds.train.labels[anomalous])
        with pytest.raises(ValueError, match="label"):
            centroid_distance(lop, lop)


class TestInstanceSeries:
    def test_rejects_empty_block_by_name(self):
        with pytest.raises(ValueError, match="instance block is empty"):
            InstanceSeries(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            InstanceSeries(np.zeros((2, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_feature_by_row_and_column(self, bad):
        feats = np.zeros((4, 2))
        feats[2, 1] = bad
        with pytest.raises(ValueError, match=rf"feature f2 is {bad} at time index 3"):
            InstanceSeries(feats, np.array([-1, -1, 1, 1]))

    def test_labels_are_read_only_bytes(self):
        series = Dataset(small_config(n_train=8, n_test=8)).train
        assert series.labels.dtype == np.int8
        assert not series.labels.flags.writeable
        assert series.labels.tolist() == quarter_labels(8).tolist()

    @pytest.mark.parametrize("bad", [255, 257, -255, -257])
    def test_rejects_labels_that_wrap_to_a_valid_byte(self, bad):
        # Cast to int8 first, each of these would read as -1 or +1.
        assert np.array([bad]).astype(np.int8)[0] in (-1, 1)
        with pytest.raises(ValueError, match=r"labels must be -1 or \+1"):
            InstanceSeries(np.zeros((2, 2)), np.array([-1, bad]))

    def test_in_place_nan_write_rejected(self):
        # A writeable block would let this NaN past the constructor's check:
        # the solver then ran every pair update, and preprocess made it the danger signal.
        ds = Dataset(GeneratorConfig(class2_mean=0.5, seed=8))
        with pytest.raises(ValueError, match="read-only"):
            ds.train.features[417, 1] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            ds.train.labels[0] = 0
        assert np.isfinite(ds.train.features).all()

    def test_keeps_its_own_copy(self):
        feats = np.zeros((4, 2))
        labels = np.array([-1, -1, 1, 1])
        series = InstanceSeries(feats, labels)
        feats[0, 0] = np.nan
        labels[0] = 0
        assert np.isfinite(series.features).all()
        assert series.labels[0] == -1


class TestCsv:
    def test_round_trip_and_naming(self, tmp_path):
        ds = Dataset(small_config(n_train=8, n_test=8))
        train_path, test_path = write_dataset_csv(ds, tmp_path, "demo", 3)
        assert train_path.name == "demo_3_train.csv"
        assert test_path.name == "demo_3_test.csv"
        header = train_path.read_text().splitlines()[0]
        assert header == "time_index,f1,f2,label"
        back = np.loadtxt(train_path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], np.arange(1, len(ds.train) + 1))
        assert np.array_equal(back[:, 1:3], ds.train.features)
        assert np.array_equal(back[:, 3], ds.train.labels)
