import math

import numpy as np
import pytest

from windowlab.datagen import (
    Dataset,
    GeneratorConfig,
    InstanceSeries,
    centroid_distance,
    generate_benchmark_suite,
    generate_dataset,
    quarter_labels,
    read_series_csv,
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

    def test_rejects_nonpositive_stddev(self):
        with pytest.raises(ValueError, match="stddev"):
            small_config(stddev=0.0)

    def test_rejects_class2_below_class1(self):
        with pytest.raises(ValueError, match="class2_mean"):
            small_config(class2_mean=0.1)

    def test_rejects_seed_out_of_range(self):
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=-1)


class TestQuarterStructure:
    def test_eight_instance_label_pattern(self):
        ds = generate_dataset(GeneratorConfig(class2_mean=0.5, seed=1, n_train=8, n_test=8))
        assert list(ds.train.labels) == [-1, -1, 1, 1, -1, -1, 1, 1]
        assert list(ds.test.labels) == [-1, -1, 1, 1, -1, -1, 1, 1]

    def test_label_balance(self):
        ds = generate_dataset(small_config())
        for split in (ds.train, ds.test):
            assert int((split.labels == 1).sum()) == len(split) // 2
            assert int((split.labels == -1).sum()) == len(split) // 2

    def test_quarter_labels_rejects_bad_length(self):
        with pytest.raises(ValueError):
            quarter_labels(10)

    def test_time_index_consecutive_from_one(self):
        ds = generate_dataset(small_config())
        assert ds.train.time_index[0] == 1
        assert list(np.diff(ds.train.time_index)) == [1] * (len(ds.train) - 1)


class TestSampling:
    def test_bit_identical_for_equal_configs(self):
        a = generate_dataset(small_config())
        b = generate_dataset(small_config())
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.features, b.test.features)

    def test_different_seeds_differ(self):
        a = generate_dataset(small_config(seed=1))
        b = generate_dataset(small_config(seed=2))
        assert not np.array_equal(a.train.features, b.train.features)

    def test_class_conditional_means(self):
        # Law of large numbers: per-feature sample means land within
        # ~3 * stddev / sqrt(n_class) of the nominal means.
        ds = generate_dataset(GeneratorConfig(class2_mean=0.8, seed=5))
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
        dists = [centroid_distance(d) for d in suite]
        slack = 3 * 0.1 * math.sqrt(2 / 200)
        assert all(b - a > -slack for a, b in zip(dists, dists[1:]))


class TestCentroidDistance:
    def test_identical_distributions_near_zero(self):
        ds = generate_dataset(GeneratorConfig(class2_mean=0.2, seed=2))
        assert centroid_distance(ds) < 3 * 0.1 * math.sqrt(2 / 1000) * 3

    def test_nominal_separated_distance(self):
        ds = generate_dataset(GeneratorConfig(class2_mean=0.8, seed=2))
        assert centroid_distance(ds) == pytest.approx(0.6 * math.sqrt(2), abs=0.02)

    @pytest.mark.parametrize(
        "delta,expected", [(0.1202, 0.17), (0.2970, 0.42), (0.4808, 0.68)]
    )
    def test_reference_sweep_distances(self, delta, expected):
        # The nominal centroid distance is sqrt(2) * (class2 - class1); the
        # empirical one should track it within sampling noise.
        assert math.sqrt(2) * delta == pytest.approx(expected, abs=0.005)
        ds = generate_dataset(GeneratorConfig(class2_mean=0.2 + delta, seed=4))
        assert centroid_distance(ds) == pytest.approx(expected, abs=0.02)

    def test_single_class_rejected(self):
        ds = generate_dataset(small_config(n_train=8, n_test=8))
        anomalous = ds.train.labels == 1
        lop = InstanceSeries(ds.train.features[anomalous], ds.train.labels[anomalous])
        with pytest.raises(ValueError, match="label"):
            centroid_distance(Dataset(lop, lop, ds.config))


class TestInstanceSeries:
    def test_from_instances_rejects_gappy_time_index(self, tmp_path):
        # Rows carry no time index of their own; CSV input is where a gap can appear.
        path = tmp_path / "gappy_train.csv"
        path.write_text("time_index,f1,f2,label\n1,0.0,0.0,-1\n3,0.0,0.0,-1\n")
        with pytest.raises(ValueError, match="consecutive"):
            read_series_csv(path)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            InstanceSeries(np.zeros((2, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_feature_by_row_and_column(self, bad):
        feats = np.zeros((4, 2))
        feats[2, 1] = bad
        with pytest.raises(ValueError, match=rf"feature f2 is {bad} at time index 3"):
            InstanceSeries(feats, np.array([-1, -1, 1, 1]))

    def test_in_place_nan_write_rejected(self):
        # A writeable block would let this NaN past the constructor's check:
        # the solver then ran every pair update, and preprocess made it the danger signal.
        ds = generate_dataset(GeneratorConfig(class2_mean=0.5, seed=8))
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
        ds = generate_dataset(small_config(n_train=8, n_test=8))
        train_path, test_path = write_dataset_csv(ds, tmp_path, "demo", 3)
        assert train_path.name == "demo_3_train.csv"
        assert test_path.name == "demo_3_test.csv"
        header = train_path.read_text().splitlines()[0]
        assert header == "time_index,f1,f2,label"
        back = read_series_csv(train_path)
        assert np.array_equal(back.features, ds.train.features)
        assert np.array_equal(back.labels, ds.train.labels)

    def test_non_finite_cell_named_on_read(self, tmp_path):
        path = tmp_path / "bad_train.csv"
        path.write_text("time_index,f1,f2,label\n1,0.1,0.2,-1\n2,nan,0.3,1\n")
        with pytest.raises(ValueError, match="feature f1 is nan at time index 2"):
            read_series_csv(path)
