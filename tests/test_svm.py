import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import qp_reference, smo_train
from windowlab.datagen import (
    GeneratorConfig,
    InstanceSeries,
    generate_benchmark_suite,
    generate_dataset,
)
from windowlab.harness import ExperimentConfig
from windowlab.svm import (
    ConvergenceError,
    DegenerateModelError,
    LinearModel,
    ScoreSeries,
    dual_objective,
    score_series,
    train,
)

EQ_TOL = 1e-8


def series(points, labels):
    return InstanceSeries(np.array(points, dtype=float), np.array(labels))


TWO_POINTS = series([(0.0, 0.0), (1.0, 1.0)], [-1, 1])
# Four points in margin-1 geometry: boundary x1 = 1, margin 2.
FOUR_POINTS = series([(0.0, 0.0), (0.0, 1.0), (2.0, 0.0), (2.0, 1.0)], [-1, -1, 1, 1])


def fixed_model(w, b):
    return LinearModel(w=np.array(w, dtype=float), b=b, alphas=np.zeros(1), C=1.0)


def distances(m, points):
    """Signed distances of bare points, through ``score_series``."""
    points = np.array(points, dtype=float)
    return score_series(m, series(points, np.ones(len(points), dtype=int))).scores


def random_separable(rng, n=40):
    feats = rng.normal(0, 1, (n, 2))
    labels = np.where(feats[:, 0] + 0.3 > 0, 1, -1)
    feats[:, 0] += labels * 0.8
    return series(feats, labels)


class TestTrainBasics:
    def test_two_point_symmetry(self):
        model = train(TWO_POINTS, C=1.0)
        w = model.w / np.linalg.norm(model.w)
        assert w == pytest.approx([np.sqrt(0.5), np.sqrt(0.5)], abs=1e-6)
        assert model.w @ (0.5, 0.5) + model.b == pytest.approx(0.0, abs=1e-9)
        signs = np.where(score_series(model, TWO_POINTS).scores >= 0, 1, -1)
        assert np.array_equal(signs, TWO_POINTS.labels)

    def test_four_point_hand_geometry(self):
        model = train(FOUR_POINTS, C=100.0, tol=1e-10)
        assert np.linalg.norm(model.w) == pytest.approx(1.0, abs=1e-8)
        assert model.w == pytest.approx([1.0, 0.0], abs=1e-8)
        assert model.b == pytest.approx(-1.0, abs=1e-8)
        assert 2.0 / np.linalg.norm(model.w) == pytest.approx(2.0, abs=1e-8)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="both classes"):
            train(series([(0, 0), (1, 1)], [1, 1]), C=1.0)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError, match="C"):
            train(TWO_POINTS, C=0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            train(series(np.empty((0, 2)), []), C=1.0)

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(0)
        overlapping = series(rng.normal(0, 1, (40, 2)), np.repeat([-1, 1], 20))
        with pytest.raises(ConvergenceError):
            train(overlapping, C=1.0, max_pair_updates=1)

    def test_stalled_gap_stops_the_solver(self):
        # Wide, overlapping features make maximal-violating pairs zig-zag: the
        # gap never falls below its starting 2.0 in 60,000 updates, and without
        # the stop this ran the whole default cap, about 20 s.
        rng = np.random.default_rng(0)
        stalled = series(rng.uniform(0, 125, (299, 3)), rng.choice([-1, 1], 299))
        start = time.perf_counter()
        stop = r"no new minimum since update 0 \(best gap 2\.000e\+00\)"
        with pytest.raises(ConvergenceError, match=stop):
            train(stalled, C=62.7)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_gap_stops_the_solver(self):
        # A finite but huge feature overflows the kernel products: the gap is
        # NaN from the first update on, and once it read -inf (update 501) it
        # passed as converged and train returned NaN weights without an error.
        ds = generate_dataset(GeneratorConfig(class2_mean=0.5, seed=8))
        feats = ds.train.features.copy()
        feats[0, 0] = 1e200
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="violation gap is -?(nan|inf) at pair update"):
            train(InstanceSeries(feats, ds.train.labels), C=1.0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_split_fails_like_the_oracle(self):
        # The kernel overflows, so the first update takes i's bias to -inf inside
        # the "can increase" set: a test by value after the subtraction would
        # read i from the other vector, inf - inf, and fail with a NaN gap.
        feats = [(-1e155, 1e155), (-1e155, -1e155)]
        with pytest.raises(RuntimeError) as ref:
            smo_train(np.array(feats), np.array([-1, 1]), 1.0)
        with pytest.raises(ConvergenceError) as err:
            train(series(feats, [-1, 1]), C=1.0)
        assert str(err.value) == str(ref.value) == "violation gap is inf at pair update 1"


class TestDualConstraints:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equality_box_and_representer(self, seed):
        cfg = GeneratorConfig(class2_mean=0.4, seed=seed, n_train=200, n_test=200)
        ds = generate_dataset(cfg)
        model = train(ds.train, C=1.0)
        y = ds.train.labels
        assert abs(float(np.sum(model.alphas * y))) <= EQ_TOL
        assert np.all(model.alphas >= 0) and np.all(model.alphas <= 1.0)
        w_rep = ds.train.features.T @ (model.alphas * y)
        assert np.linalg.norm(w_rep - model.w) <= EQ_TOL

    def test_kkt_residuals_within_tolerance(self):
        cfg = GeneratorConfig(class2_mean=0.4, seed=9, n_train=400, n_test=400)
        ds = generate_dataset(cfg)
        tol = 1e-3
        model = train(ds.train, C=1.0, tol=tol)
        margins = ds.train.labels * (ds.train.features @ model.w + model.b)
        at_zero = model.alphas <= 0
        at_c = model.alphas >= model.C
        free = ~(at_zero | at_c)
        assert np.all(margins[at_zero] >= 1 - tol)
        assert np.all(margins[at_c] <= 1 + tol)
        assert np.all(np.abs(margins[free] - 1) <= tol)

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(3)
        ds = random_separable(rng, n=40)
        model = train(ds, C=1.0, tol=1e-10)
        base = dual_objective(model, ds)
        y = ds.labels.astype(float)
        for _ in range(1000):
            i, j = rng.integers(0, len(ds), 2)
            if i == j:
                continue
            alphas = model.alphas.copy()
            # Feasible pair move: step along (+y_i, -y_j) keeps sum(y a) fixed.
            t_hi = min(
                (1.0 - alphas[i]) if y[i] > 0 else alphas[i],
                alphas[j] if y[j] > 0 else (1.0 - alphas[j]),
            )
            t_lo = -min(
                alphas[i] if y[i] > 0 else (1.0 - alphas[i]),
                (1.0 - alphas[j]) if y[j] > 0 else alphas[j],
            )
            t = rng.uniform(t_lo, t_hi)
            alphas[i] += y[i] * t
            alphas[j] -= y[j] * t
            np.clip(alphas, 0.0, 1.0, out=alphas)
            perturbed = LinearModel(w=model.w, b=model.b, alphas=alphas, C=model.C)
            assert dual_objective(perturbed, ds) <= base + 1e-9

    def test_separable_large_c_zero_training_error(self):
        rng = np.random.default_rng(4)
        ds = random_separable(rng, n=60)
        model = train(ds, C=1e4, tol=1e-8)
        preds = np.where(score_series(model, ds).scores >= 0, 1, -1)
        assert np.array_equal(preds, ds.labels)
        margins = ds.labels * (ds.features @ model.w + model.b)
        assert margins.min() >= 1 - 1e-6


class TestBruteForceEquivalence:
    def test_four_point_fixture_matches_oracle(self):
        ref = qp_reference(FOUR_POINTS.features, FOUR_POINTS.labels, C=100.0)
        model = train(FOUR_POINTS, C=100.0, tol=1e-10)
        assert dual_objective(model, FOUR_POINTS) == pytest.approx(ref["objective"], abs=1e-6)
        assert model.w == pytest.approx(ref["w"], abs=1e-6)
        assert model.b == pytest.approx(ref["b"], abs=1e-6)
        assert ref["objective"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_tiny_random_problems(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 7))
        feats = rng.normal(0, 1, (n, 2))
        labels = np.ones(n, dtype=int)
        labels[: n // 2] = -1
        rng.shuffle(labels)
        if len(np.unique(labels)) < 2:
            labels[0] = -labels[0]
        ds = series(feats, labels)
        c = float(rng.choice([0.5, 1.0, 10.0]))
        ref = qp_reference(feats, labels, C=c)
        model = train(ds, C=c, tol=1e-12)
        assert dual_objective(model, ds) == pytest.approx(ref["objective"], abs=1e-6)


@st.composite
def small_splits(draw):
    """Both classes, rows drawn with repeats from a pool, so some pairs have
    eta = 0 (a step of t = inf clipped to the box); integer pools tie crit."""
    n = draw(st.sampled_from(range(2, 301)))  # uniform; st.integers favours the ends
    n_features = draw(st.integers(1, 3))
    distinct = max(1, n // draw(st.sampled_from([1, 2, 10])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = rng.integers(-3, 4, (distinct, n_features)).astype(float)
    else:
        pool = rng.normal(0.0, draw(st.sampled_from([0.01, 1.0, 5.0])), (distinct, n_features))
    labels = rng.choice([-1, 1], n)
    if np.unique(labels).size < 2:
        labels[0] = -labels[0]
    shift = draw(st.sampled_from([0.0, 1.0, 3.0]))
    feats = pool[rng.integers(0, distinct, n)] + shift * labels[:, None]
    if draw(st.integers(0, 4)) == 0:  # kernel products near or past overflow
        feats *= 10.0 ** draw(st.integers(150, 160))
    return feats, labels


class TestInPlaceSolverParity:
    """``train`` must reproduce the mask-and-gradient solver in ``oracles`` bit
    for bit, and keep its update count and final gap on the model."""

    @staticmethod
    def assert_same_model(model, ref, tol):
        assert model.w.tobytes() == ref["w"].tobytes()
        assert np.float64(model.b).tobytes() == np.float64(ref["b"]).tobytes()
        assert model.alphas.tobytes() == ref["alphas"].tobytes()
        assert model.pair_updates == ref["pair_updates"]
        assert model.gap == ref["gap"] and model.gap <= tol

    def assert_same_outcome(self, feats, labels, C, tol=1e-3, cap=1_000_000):
        try:
            ref = smo_train(feats, labels, C, tol=tol, max_pair_updates=cap)
        except RuntimeError as ref_err:
            # Same update and the same gap text (inf, -inf or nan); train adds the gap
            # to the oracle's message when it runs out of updates.
            with pytest.raises(ConvergenceError) as err:
                train(series(feats, labels), C, tol=tol, max_pair_updates=cap)
            assert str(err.value).startswith(str(ref_err))
            return
        model = train(series(feats, labels), C, tol=tol, max_pair_updates=cap)
        self.assert_same_model(model, ref, tol)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(
        split=small_splits(),
        C=st.floats(0.05, 100.0),
        tol=st.sampled_from([1e-3, 1e-6]),
        # Wide, overlapping draws at large C can need over a million updates;
        # the cap keeps the test fast and compares the ConvergenceError path.
        cap=st.one_of(st.just(2_000), st.integers(1, 40)),
    )
    def test_matches_mask_solver(self, split, C, tol, cap):
        self.assert_same_outcome(*split, C, tol=tol, cap=cap)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("feats, labels", [
        ([(0.0,), (1e154,), (-1e154,), (3e154,)], [-1, 1, -1, 1]),  # the oracle converges
        ([(-2e155, -1e155), (-3e155, -2e155), (-2e155, 1e155)], [-1, -1, 1]),  # gap inf
    ])
    def test_overflow_outside_a_set_is_ignored(self, feats, labels):
        # The first kernel column overflows at an instance outside a set, where
        # -inf - -inf (or +inf - +inf) gives NaN; the oracle's masks never read it.
        self.assert_same_outcome(feats, labels, 1.0)

    def test_heaviest_long_series_split(self):
        # The long-series benchmark workload's slowest training split (4,477
        # pair updates); the suite size sets the class means, so build all 40.
        cfg = ExperimentConfig(seed=20260808, n_datasets=40, n_train=8000, n_test=8000)
        ds = generate_benchmark_suite(40, cfg.base_generator_config(), cfg.seed)[2]
        ref = smo_train(ds.train.features, ds.train.labels, cfg.svm_c)
        model = train(ds.train, C=cfg.svm_c)
        self.assert_same_model(model, ref, 1e-3)
        assert model.pair_updates == 4477


class TestDecisionOps:
    def test_decision_value_examples(self):
        # A score times ||w|| is the affine decision value <w, x> + b.
        assert distances(fixed_model([1.0, 0.0], -0.5), [(0.5, 7.0)]) == pytest.approx([0.0])
        m2 = fixed_model([2.0, 1.0], 1.0)
        assert distances(m2, [(1.0, 1.0)]) * np.linalg.norm(m2.w) == pytest.approx([4.0])

    def test_decision_value_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distances(fixed_model([1.0, 0.0], 0.0), [(1.0, 2.0, 3.0)])

    def test_signed_distance_examples(self):
        m = fixed_model([3.0, 4.0], 0.0)
        assert distances(m, [(1.0, 0.0), (0.0, 0.0)]) == pytest.approx([0.6, 0.0])

    def test_signed_distance_scale_invariance(self):
        m = fixed_model([3.0, 4.0], -1.0)
        scaled = fixed_model(m.w * 7.5, m.b * 7.5)
        points = [(0.2, 0.3), (-1.0, 2.0), (0.0, 0.0)]
        assert distances(scaled, points) == pytest.approx(distances(m, points))

    def test_degenerate_model_rejected(self):
        with pytest.raises(DegenerateModelError):
            distances(fixed_model([0.0, 0.0], 0.0), [(1.0, 1.0)])

    def test_predict_sign_convention(self):
        # A point on the boundary scores exactly 0, which LNC labels +1.
        out = distances(fixed_model([1.0, 0.0], 0.0), [(0.0, 5.0), (-0.3, 0.0), (2.5, 0.0)])
        assert out[0] == 0.0 and out[1] < 0 < out[2]


class TestScoreSeries:
    def test_empty_test_set(self):
        model = train(TWO_POINTS, C=1.0)
        out = score_series(model, series(np.empty((0, 2)), []))
        assert len(out) == 0

    def test_two_point_scores_symmetric(self):
        model = train(TWO_POINTS, C=1.0)
        out = score_series(model, TWO_POINTS)
        assert out.scores[0] == pytest.approx(-out.scores[1])
        assert out.scores[1] > 0

    def test_sign_matches_predict(self):
        cfg = GeneratorConfig(class2_mean=0.5, seed=8, n_train=80, n_test=80)
        ds = generate_dataset(cfg)
        model = train(ds.train, C=1.0)
        out = score_series(model, ds.test)
        for score, x in zip(out.scores, ds.test.features):
            assert (score >= 0) == (float(model.w @ x) + model.b >= 0)

    def test_truths_copied_in_order(self):
        cfg = GeneratorConfig(class2_mean=0.5, seed=8, n_train=80, n_test=80)
        ds = generate_dataset(cfg)
        out = score_series(train(ds.train, C=1.0), ds.test)
        assert np.array_equal(out.truths, ds.test.labels)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScoreSeries(np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected_by_time_index(self, bad):
        with pytest.raises(ValueError, match=rf"score is {bad} at time index 2"):
            ScoreSeries(np.array([0.5, bad, -0.5]), np.array([1, 1, -1]))

    def test_arrays_are_read_only_copies(self):
        scores = np.array([0.5, -0.5])
        out = ScoreSeries(scores, np.array([1, -1]))
        scores[0] = np.nan
        assert out.scores[0] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            out.scores[1] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            out.truths[1] = 0


def test_train_rejects_nan_feature_fast():
    # Without the check the NaN gap never closes and the solver runs every pair update.
    ds = generate_dataset(GeneratorConfig(class2_mean=0.5, seed=8))
    feats = ds.train.features.copy()
    feats[417, 1] = np.nan
    start = time.perf_counter()
    with pytest.raises(ValueError, match="feature f2 is nan at time index 418"):
        train(InstanceSeries(feats, ds.train.labels), C=1.0)
    assert time.perf_counter() - start < 1.0


def test_solver_memory_is_under_eight_vectors():
    # The long-series workload's heaviest split (n = 8,000). The solver needs 7
    # n-vectors and a mask (the weights reuse a kernel-column buffer); a hashed
    # np.unique of the labels would take about 19.
    cfg = ExperimentConfig(seed=20260808, n_datasets=40, n_train=8000, n_test=8000)
    train_split = generate_benchmark_suite(40, cfg.base_generator_config(), cfg.seed)[2].train
    tracemalloc.start()
    try:
        train(train_split, C=cfg.svm_c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * len(train_split)
