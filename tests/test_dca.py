import threading
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from windowlab.datagen import GeneratorConfig, InstanceSeries, generate_dataset
from windowlab.dca import (
    DCAPopulation,
    DegenerateSignalError,
    DendriticCell,
    NormalizationError,
    SignalMapping,
    SignalSeries,
    init_lifespans,
    preprocess,
    run_dca,
    run_dca_scores,
    signal_transform,
)
from windowlab.windows import budget_walk


def presentation_spans(cum_csm, lifespan):
    """One cell's (start, end) windows from the shared budget walk."""
    ((edges, starts),) = budget_walk(cum_csm, np.array([lifespan]), "left")
    (edges,) = np.split(edges, starts[1:])
    return list(zip(edges[:-1].tolist(), (edges[1:] - 1).tolist()))


def block(features, labels):
    return InstanceSeries(np.array(features, dtype=float), np.array(labels))


def signals_from(safe, danger):
    mapping = SignalMapping(
        correlations=np.array([1.0, 0.0]), danger_feature=0, safe_inverted=True
    )
    return SignalSeries(np.asarray(safe, dtype=float), np.asarray(danger, dtype=float), mapping)


class TestPreprocess:
    def test_perfectly_correlated_feature_becomes_danger(self):
        labels = [-1, -1, 1, 1, -1, -1, 1, 1]
        indicator = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]
        other = [0.1, 0.3, 0.1, 0.3, 0.1, 0.3, 0.1, 0.3]
        sig = preprocess(block(list(zip(indicator, other)), labels))
        assert sig.mapping.danger_feature == 0
        assert sig.mapping.correlations[0] == pytest.approx(1.0)
        assert abs(sig.mapping.correlations[1]) < 0.5

    def test_minmax_endpoints_hit_zero_and_one(self):
        feats = [(0.2, 0.5), (0.8, 0.1), (0.5, 0.9)]
        sig = preprocess(block(feats, [-1, 1, -1]))
        assert sig.danger.min() == pytest.approx(0.0)
        assert sig.danger.max() == pytest.approx(1.0)
        assert sig.safe.min() == pytest.approx(0.0)
        assert sig.safe.max() == pytest.approx(1.0)

    def test_safe_signal_inverted_when_positively_correlated(self):
        # Both features rise with anomalies, so the safe one must be flipped.
        ds = generate_dataset(GeneratorConfig(class2_mean=0.8, seed=3, n_train=200, n_test=200))
        sig = preprocess(ds.test)
        assert sig.mapping.safe_inverted
        anomalous = ds.test.labels == 1
        assert sig.danger[anomalous].mean() > sig.danger[~anomalous].mean()
        assert sig.safe[anomalous].mean() < sig.safe[~anomalous].mean()

    def test_signals_stay_in_unit_interval(self):
        ds = generate_dataset(GeneratorConfig(class2_mean=0.5, seed=4, n_train=200, n_test=200))
        sig = preprocess(ds.test)
        for values in (sig.safe, sig.danger):
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_constant_feature_rejected(self):
        feats = [(0.5, 0.1), (0.5, 0.7), (0.5, 0.4)]
        with pytest.raises(NormalizationError, match="feature 1"):
            preprocess(block(feats, [-1, 1, -1]))

    def test_wrong_feature_count_rejected(self):
        feats = np.zeros((4, 3))
        feats[:, 0] = [0, 1, 2, 3]
        feats[:, 1] = [3, 2, 1, 0]
        feats[:, 2] = [0, 1, 0, 1]
        with pytest.raises(ValueError, match="2 features"):
            preprocess(InstanceSeries(feats, np.array([-1, 1, -1, 1])))

    def test_single_class_rejected(self):
        feats = [(0.1, 0.2), (0.3, 0.4)]
        with pytest.raises(ValueError, match="single class"):
            preprocess(block(feats, [-1, -1]))

    def test_nan_feature_rejected_not_made_danger(self):
        # Without the check the NaN correlation wins argmax and becomes the danger signal.
        feats = [(0.1, 0.2), (0.3, float("nan")), (0.9, 0.8), (0.7, 0.6)]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="feature f2 is nan at time index 2"):
            preprocess(block(feats, [-1, -1, 1, 1]))
        assert time.perf_counter() - start < 1.0


class TestSignalTransform:
    @staticmethod
    def transform(safe, danger):
        csm, k = signal_transform(np.array([safe]), np.array([danger]))
        return csm.tolist(), k.tolist()

    def test_pure_safe(self):
        assert self.transform(1.0, 0.0) == ([1.0], [-1.0])

    def test_pure_danger(self):
        assert self.transform(0.0, 1.0) == ([1.0], [1.0])

    def test_silence(self):
        assert self.transform(0.0, 0.0) == ([0.0], [0.0])

    def test_vectorized(self):
        csm, k = signal_transform([0.5, 0.0], [0.5, 1.0])
        assert np.allclose(csm, [1.0, 1.0])
        assert np.allclose(k, [0.0, 1.0])


class TestLifespans:
    def test_top_of_ladder_is_peak_csm(self):
        sig = signals_from([1.0, 0.0], [1.0, 0.5])  # peak csm = 2.0
        spans = init_lifespans(sig, 100, 1.0)
        assert spans[-1] == pytest.approx(2.0)
        assert spans[0] == pytest.approx(0.02)

    def test_lambda_scales_linearly(self):
        sig = signals_from([0.5, 0.25], [0.5, 0.25])
        assert np.allclose(
            init_lifespans(sig, 50, 100.0), 100.0 * init_lifespans(sig, 50, 1.0)
        )

    def test_population_size(self):
        sig = signals_from([0.5], [0.5])
        spans = init_lifespans(sig, 100, 1.0)
        assert spans.size == 100
        assert np.unique(spans).size == 100

    def test_zero_signals_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            init_lifespans(signals_from([0.0, 0.0], [0.0, 0.0]), 10, 1.0)

    def test_population_validation(self):
        with pytest.raises(ValueError, match="empty"):
            DCAPopulation(())
        with pytest.raises(ValueError, match="increasing"):
            DCAPopulation((DendriticCell(1.0), DendriticCell(1.0)))
        with pytest.raises(ValueError, match="positive"):
            DCAPopulation((DendriticCell(0.0),))


class TestRunDca:
    def test_single_patient_cell_votes_global_sign(self):
        safe = [0.5, 0.5, 0.0, 0.5]
        danger = [0.0, 1.0, 0.5, 0.0]  # total k = -0.5+0.5+0.5-0.5 = 0
        sig = signals_from(safe, danger)
        pop = DCAPopulation.from_lifespans([100.0])
        assert list(run_dca(sig, pop)) == [1, 1, 1, 1]  # sgn(0) = +1

    def test_constant_signals_present_every_two_steps(self):
        sig = signals_from([0.0] * 6, [0.5] * 6)  # csm = 0.5, k = +0.5
        pop = DCAPopulation.from_lifespans([1.0])
        vote_sums = run_dca_scores(sig, pop)
        assert [oracles.sign_plus(v) for v in vote_sums] == [1] * 6
        assert list(vote_sums) == [1.0] * 6  # windows of two, k_sum = 1.0
        spans = presentation_spans(np.cumsum(np.array([0.5] * 6)), 1.0)
        assert spans == [(0, 1), (2, 3), (4, 5)]

    def test_hand_traced_two_cell_run(self):
        safe = [0.0, 0.5, 1.0, 0.25, 0.0, 0.5, 0.75, 0.0]
        danger = [1.0, 0.5, 0.0, 0.75, 0.5, 1.0, 0.25, 0.5]
        sig = signals_from(safe, danger)
        pop = DCAPopulation.from_lifespans([1.5, 3.0])
        vote_sums = run_dca_scores(sig, pop)
        assert np.allclose(vote_sums / 2, [0.5, 0.5, -0.25, 0.5, 1.25, 1.25, 0.0, 0.0])
        labels = [oracles.sign_plus(v) for v in vote_sums]
        assert labels == [1, 1, -1, 1, 1, 1, 1, 1]
        # Same trace from the stepped oracle, and from run_dca.
        assert np.array_equal(oracles.dca_labels(safe, danger, [1.5, 3.0]), labels)
        assert np.array_equal(run_dca(sig, pop), labels)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_stepped_oracle_on_random_signals(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        safe = rng.uniform(0, 1, n)
        danger = rng.uniform(0, 1, n)
        sig = signals_from(safe, danger)
        lifespans = init_lifespans(sig, 20, float(rng.choice([1.0, 10.0])))
        got = run_dca(sig, DCAPopulation.from_lifespans(lifespans))
        assert np.array_equal(got, oracles.dca_labels(safe, danger, lifespans))

    def test_every_cell_votes_on_every_instance(self):
        rng = np.random.default_rng(7)
        sig = signals_from(rng.uniform(0, 1, 50), rng.uniform(0, 1, 50))
        lifespans = init_lifespans(sig, 30, 1.0)
        vote_sums = run_dca_scores(sig, DCAPopulation.from_lifespans(lifespans))
        votes = oracles.dca_votes(sig.safe, sig.danger, lifespans)
        assert [len(v) for v in votes] == [30] * 50
        assert np.allclose(vote_sums, [sum(v) for v in votes])

    def test_presentation_windows_partition_the_series(self):
        rng = np.random.default_rng(8)
        csm = rng.uniform(0, 1, 40)
        cum = np.cumsum(csm)
        for lifespan in (0.1, 0.7, 3.0, 100.0):
            spans = presentation_spans(cum, lifespan)
            assert spans[0][0] == 0
            assert spans[-1][1] == 39
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                assert s2 == e1 + 1
                assert e1 >= s1

    @pytest.mark.parametrize("seed", range(5))
    def test_vote_sums_match_window_by_window_replay_bytes(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 120))
        safe = rng.uniform(0, 1, n)
        danger = rng.uniform(0, 1, n)
        safe[rng.random(n) < 0.2] = 0.0
        danger[rng.random(n) < 0.2] = 0.0
        sig = signals_from(safe, danger)
        lifespans = init_lifespans(sig, 30, float(rng.choice([0.05, 1.0, 10.0])))
        vote_sums = run_dca_scores(sig, DCAPopulation.from_lifespans(lifespans))
        expected = oracles.dca_vote_sums(safe, danger, lifespans)
        assert vote_sums.tobytes() == expected.tobytes()

    def test_mixed_batches_keep_the_window_by_window_bytes(self):
        """Table lanes (batches of one) and batches of sparse lanes in one
        population: the vote sums are the window-by-window replay's bytes."""
        rng = np.random.default_rng(31)
        safe, danger = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
        safe[rng.random(200) < 0.2] = 0.0
        sig = signals_from(safe, danger)
        lifespans = init_lifespans(sig, 60, 100.0)
        csm, _ = signal_transform(safe, danger)
        batches = [len(s) for _, s in budget_walk(np.cumsum(csm), lifespans, "left")]
        assert batches.count(1) >= 2 and sum(size > 1 for size in batches) >= 2
        vote_sums = run_dca_scores(sig, DCAPopulation.from_lifespans(lifespans))
        expected = oracles.dca_vote_sums(safe, danger, lifespans)
        assert vote_sums.tobytes() == expected.tobytes()

    def test_tiny_lifespan_finishes_with_singleton_windows(self):
        # cum_csm + 1e-17 rounds back to cum_csm, so without the [start, n-1]
        # clip the walk would step backwards forever.
        sig = signals_from([0.0, 0.5, 0.25], [0.5, 0.0, 0.75])  # k = +0.5, -0.5, +0.5
        pop = DCAPopulation.from_lifespans([1e-17])
        result = {}
        worker = threading.Thread(
            target=lambda: result.update(vote_sums=run_dca_scores(sig, pop)), daemon=True
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "run_dca_scores did not finish"
        vote_sums = result["vote_sums"]
        assert list(vote_sums) == [0.5, -0.5, 0.5]
        assert [oracles.sign_plus(v) for v in vote_sums] == [1, -1, 1]
        assert presentation_spans(np.cumsum([0.5, 0.5, 1.0]), 1e-17) == [(0, 0), (1, 1), (2, 2)]

    @pytest.mark.parametrize("lam", [1.0, 100.0])
    def test_memory_is_one_cell_at_a_time(self, lam):
        # 1,000 instances, 100 cells: a cells x n end table would alone exceed the bound.
        ds = generate_dataset(GeneratorConfig(class2_mean=0.5, seed=12))
        sig = preprocess(ds.test)
        pop = DCAPopulation.from_lifespans(init_lifespans(sig, 100, lam))
        tracemalloc.start()
        try:
            run_dca(sig, pop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        sig = signals_from(rng.uniform(0, 1, 60), rng.uniform(0, 1, 60))
        pop = DCAPopulation.from_lifespans(init_lifespans(sig, 25, 1.0))
        first = run_dca(sig, pop)
        second = run_dca(sig, pop)
        assert np.array_equal(first, second)

    def test_labels_are_plus_minus_one(self):
        rng = np.random.default_rng(10)
        sig = signals_from(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30))
        labels = run_dca(sig, DCAPopulation.from_lifespans(init_lifespans(sig, 10, 1.0)))
        assert set(np.unique(labels)) <= {-1, 1}

    def test_lifespans_beyond_total_give_constant_labels(self):
        rng = np.random.default_rng(11)
        safe = rng.uniform(0, 1, 20)
        danger = rng.uniform(0, 1, 20)
        sig = signals_from(safe, danger)
        total = float((safe + danger).sum())
        pop = DCAPopulation.from_lifespans([total + 1.0, total + 2.0])
        labels = run_dca(sig, pop)
        expected = 1 if (danger - safe).sum() >= 0 else -1
        assert set(labels) == {expected}

    def test_empty_series_rejected(self):
        sig = signals_from([], [])
        with pytest.raises(ValueError, match="empty"):
            run_dca(sig, DCAPopulation.from_lifespans([1.0]))
