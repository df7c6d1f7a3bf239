import ast
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from windowlab import windows
from windowlab.svm import ScoreSeries
from windowlab.windows import (
    DegenerateGridError,
    ThresholdGrid,
    TunedFilter,
    WindowSizeGrid,
    apply,
    budget_walk,
    default_size_grid,
    dynamic_label,
    make_threshold_grid,
    static_label,
    tune_dynamic,
    tune_static,
)


def make_series(scores, truths=None):
    scores = np.asarray(scores, dtype=float)
    if truths is None:
        truths = np.where(scores >= 0, 1, -1)
    return ScoreSeries(scores, np.asarray(truths))


# 1/32-grid scores sum exactly in binary and power-of-two factors rescale
# them exactly, so real-arithmetic identities (oracle equality, scale
# invariance) hold bit-for-bit instead of stumbling over rounding ties that
# full-range floats can manufacture (e.g. 1.0 absorbing -1e-34 in a prefix
# sum and flipping the sign of a near-zero window total).
grid_score_lists = st.lists(
    st.integers(min_value=-160, max_value=160).map(lambda v: v / 32.0),
    min_size=1,
    max_size=60,
)
pow2_factors = st.sampled_from([0.25, 0.5, 2.0, 4.0, 16.0])


@st.composite
def walk_cases(draw):
    """Nonnegative increments (zeros included, not all zero) and strictly
    increasing budgets that always reach below the smallest increment and above
    the total, and straddle the crossover between the walk's two chases, so
    every case has table lanes and bisect lanes.  A drawn pattern of up to 40
    increments repeats up to 8 times, so a bisect lane can cover up to 32
    windows."""
    pattern = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0)),
            min_size=1,
            max_size=40,
        )
    )
    increments = pattern * draw(st.integers(min_value=1, max_value=8))
    n = len(increments)
    total = float(np.cumsum(increments)[-1])
    assume(total > 0)
    crossover = total * windows._BISECT_STEP_COST / n
    drawn = draw(
        st.lists(st.floats(min_value=1e-6, max_value=2 * total + 1), max_size=8)
    )
    near = draw(st.lists(st.floats(min_value=0.25, max_value=4.0), max_size=4))
    budgets = set(drawn) | {crossover * f for f in near}
    budgets |= {1e-17, 5e-4, 2 * crossover, total + 1.0}
    return np.array(increments), np.array(sorted(budgets))


def spans_of(edges):
    return list(zip(edges[:-1].tolist(), (edges[1:] - 1).tolist()))


def walk_lanes(cum_mag, budgets, side):
    """Every lane's edges from one multi-lane walk: its batches split at their lane starts."""
    return [lane for edges, starts in budget_walk(cum_mag, budgets, side)
            for lane in np.split(edges, starts[1:])]


def lane_spans(cum_mag, budgets, side):
    """Every lane's (start, end) list from one multi-lane walk."""
    return [spans_of(edges) for edges in walk_lanes(cum_mag, budgets, side)]


def lane_chases(cum_mag, budgets, side):
    """Every lane's spans and whether it chased by bisect, from one walk."""
    name = f"bisect_{side}"
    real = getattr(windows, name)
    steps = []

    def counted(*args):
        steps.append(args)
        return real(*args)

    lanes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(windows, name, counted)
        for edges, starts in budget_walk(cum_mag, budgets, side):
            lanes += [(spans_of(lane), bool(steps)) for lane in np.split(edges, starts[1:])]
            steps.clear()
    return lanes


@st.composite
def tuning_cases(draw):
    """Grid scores with +-1 truths and strictly increasing budgets on a 1/64
    grid, so every window total is exact; neighbouring budgets often give the
    same partition, hence tied errors."""
    scores = draw(grid_score_lists)
    truths = draw(
        st.lists(st.sampled_from([-1, 1]), min_size=len(scores), max_size=len(scores))
    )
    steps = draw(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=30))
    budgets = sorted({v / 64.0 for v in steps})
    return np.array(scores), np.array(truths), np.array(budgets)


class TestSgn:
    """Window labels take the sign of the window sum, with sgn(0) = +1."""

    def test_zero_is_positive(self):
        assert list(static_label(make_series([0.5, -0.5]), 2)) == [1, 1]

    def test_tiny_negative(self):
        assert list(static_label(make_series([0.5, -0.5 - 1e-12]), 2)) == [-1, -1]

    def test_positive(self):
        assert list(static_label(make_series([3.7]), 1)) == [1]


class TestStaticPartition:
    """Fixed-width windows [1+(k-1)a, min(ka, n)], seen through their labels:
    each window's scores sum to the sign it should give."""

    def test_uneven_tail(self):
        out = static_label(make_series([1, 1, -3, -1, -1, 3, 1, 1, -3, 1]), 3)
        assert list(out) == [-1, -1, -1, 1, 1, 1, -1, -1, -1, 1]

    def test_whole_series(self):
        out = static_label(make_series([-1] * 9 + [10]), 10)
        assert list(out) == [1] * 10

    def test_singletons(self):
        scores = [1, -1] * 5
        assert list(static_label(make_series(scores), 1)) == scores

    def test_width_larger_than_series(self):
        assert list(static_label(make_series([-1, -1, 3, -0.5]), 100)) == [1] * 4

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            static_label(make_series([1.0] * 10), 0)


class TestStaticLabel:
    def test_single_window_sum_positive(self):
        out = static_label(make_series([0.3, -0.1, 0.2]), 3)
        assert list(out) == [1, 1, 1]

    def test_two_negative_windows(self):
        out = static_label(make_series([-0.5, 0.1, -0.5, 0.1]), 2)
        assert list(out) == [-1, -1, -1, -1]

    def test_width_one_is_pointwise_sign(self):
        scores = np.array([0.2, -0.3, 0.0, 1.5, -0.1])
        out = static_label(make_series(scores), 1)
        assert list(out) == [1, -1, 1, 1, -1]

    # Oracle-equality properties use grid scores: their partial sums are exact
    # in binary, so implementation and oracle cannot drift apart through
    # summation order (full-range floats can, e.g. 1.0 absorbing -1e-34).
    @given(grid_score_lists, st.integers(min_value=1, max_value=70))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, scores, alpha):
        got = static_label(make_series(scores), alpha)
        assert np.array_equal(got, oracles.static_labels(scores, alpha))

    @given(grid_score_lists, st.integers(min_value=1, max_value=20), pow2_factors)
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, scores, alpha, c):
        base = static_label(make_series(scores), alpha)
        scaled = static_label(make_series(np.asarray(scores) * c), alpha)
        assert np.array_equal(base, scaled)

    def test_full_width_equals_global_majority(self):
        scores = np.array([0.5, -0.2, -0.6, 0.1])
        out = static_label(make_series(scores), len(scores))
        assert set(out) == {oracles.sign_plus(float(scores.sum()))}


def width_one_error(labels, truths) -> float:
    """Training error of the one-width grid {1}: labels are the score signs."""
    return tune_static(make_series(labels, truths), WindowSizeGrid((1,))).training_error


class TestWindowError:
    """The training error the tuners report: the mean squared label error."""

    def test_zero_when_equal(self):
        assert width_one_error([1, -1, 1], [1, -1, 1]) == 0.0

    def test_one_disagreement_of_four(self):
        assert width_one_error([1, 1, 1, 1], [1, 1, 1, -1]) == 1.0

    def test_all_disagree(self):
        assert width_one_error([1, 1], [-1, -1]) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            width_one_error([1, 1], [1])

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=50), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_four_times_hamming(self, truths, rnd):
        labels = [t if rnd.random() < 0.5 else -t for t in truths]
        mism = sum(1 for a, b in zip(labels, truths) if a != b) / len(truths)
        assert width_one_error(labels, truths) == pytest.approx(4 * mism)


class TestTuneStatic:
    def test_perfect_scores_pick_smallest(self):
        series = make_series([0.5, -0.5, 0.5, -0.5])
        tuned = tune_static(series, default_size_grid(10))
        assert tuned.parameter == 1.0
        assert tuned.training_error == 0.0
        assert tuned.kind == "static"

    def test_singleton_grid(self):
        series = make_series([0.5, -0.5], truths=[-1, -1])
        tuned = tune_static(series, WindowSizeGrid((1,)))
        assert tuned.parameter == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 50))
        scores = rng.normal(0, 1, n)
        truths = rng.choice([-1, 1], n)
        series = make_series(scores, truths)
        grid = default_size_grid(min(n, 20))
        tuned = tune_static(series, grid)
        alpha_ref, err_ref = oracles.tune_static(scores, truths, grid.sizes)
        assert tuned.parameter == alpha_ref
        assert tuned.training_error == pytest.approx(err_ref)

    def test_every_width_matches_the_oracle_across_batches(self):
        """A grid of 60 widths over 120 instances splits into batches of about
        n edges; each width's lane and error equal the oracle's."""
        rng = np.random.default_rng(41)
        scores = rng.integers(-200, 121, 120) / 32.0  # grid scores: exact window sums
        truths = rng.choice([-1, 1], 120)
        # a pair straddling two lanes, from edge n back to 0, would count nonzero
        assert scores.sum() < 0 and 2 * np.sum(truths > 0) != 120
        sizes = tuple(range(1, 61))
        batches = list(windows._static_batches(120, np.array(sizes)))
        assert len(batches) >= 4
        lanes = [lane for edges, starts in batches for lane in np.split(edges, starts[1:])]
        assert [spans_of(lane) for lane in lanes] == [oracles.static_spans(120, a) for a in sizes]
        errors = windows._lane_errors(make_series(scores, truths), len(sizes), batches)
        expected = [
            oracles.mean_square_label_error(oracles.static_labels(scores, a), truths) for a in sizes
        ]
        assert errors.tolist() == expected
        tuned = tune_static(make_series(scores, truths), WindowSizeGrid(sizes))
        assert (tuned.parameter, tuned.training_error) == oracles.tune_static(scores, truths, sizes)


class TestNonFiniteScores:
    def test_threshold_grid_names_the_nan(self):
        # Without the check the NaN peak makes every threshold NaN: "must be positive".
        start = time.perf_counter()
        with pytest.raises(ValueError, match="score is nan at time index 2"):
            make_threshold_grid(make_series([0.5, np.nan, -0.2]), 10, 1.0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tune_static_names_the_value(self, bad):
        # Without the check a NaN window sum labels -1 and tuning returns error 2.0.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"score is {bad} at time index 3"):
            tune_static(make_series([0.5, -0.5, bad, 0.5], [1, -1, 1, 1]), default_size_grid(4))
        assert time.perf_counter() - start < 1.0


class TestThresholdGrid:
    def test_midpoint_value(self):
        series = make_series([2.0, -1.0])
        grid = make_threshold_grid(series, 100, 1.0)
        assert grid.thresholds[49] == pytest.approx(1.0)  # l = 50

    def test_top_of_grid_scales_with_lambda(self):
        series = make_series([2.0, -1.0])
        grid = make_threshold_grid(series, 100, 100.0)
        assert grid.thresholds[-1] == pytest.approx(200.0)

    def test_lambda_scales_elementwise(self):
        series = make_series([0.7, -0.3, 1.1])
        g1 = make_threshold_grid(series, 100, 1.0)
        g100 = make_threshold_grid(series, 100, 100.0)
        assert np.allclose(g100.thresholds, 100.0 * g1.thresholds)

    def test_all_zero_scores_degenerate(self):
        with pytest.raises(DegenerateGridError):
            make_threshold_grid(make_series([0.0, 0.0]), 10, 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            ThresholdGrid(np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="positive"):
            ThresholdGrid(np.array([0.0, 1.0]), 1.0)


def dynamic_spans(scores, beta):
    """0-based (start, end) dynamic windows: a one-lane walk over |scores|."""
    (spans,) = lane_spans(np.cumsum(np.abs(scores)), [beta], "right")
    return spans


class TestDynamicPartition:
    def test_even_budget_split(self):
        assert dynamic_spans([0.4, 0.4, 0.4, 0.4], 0.8) == [(0, 1), (2, 3)]

    def test_singleton_floor(self):
        assert dynamic_spans([1.0, 1.0], 0.5) == [(0, 0), (1, 1)]

    def test_budget_below_everything_gives_singletons(self):
        assert len(dynamic_spans([0.5, -0.7, 0.2], 0.1)) == 3

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            dynamic_label(make_series([1.0]), 0.0)

    @given(grid_score_lists, st.floats(min_value=0.05, max_value=20, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_greedy_oracle_and_invariants(self, scores, beta):
        absr = np.abs(np.asarray(scores))
        (edges,) = walk_lanes(np.cumsum(absr), [beta], "right")
        assert edges[0] == 0 and edges[-1] == len(scores)
        assert np.all(np.diff(edges) > 0)  # a contiguous cover of nonempty windows
        spans = list(zip(edges[:-1].tolist(), (edges[1:] - 1).tolist()))
        assert spans == oracles.dynamic_spans(scores, beta)
        for start, end in spans:
            if end > start:
                assert absr[start : end + 1].sum() <= beta + 1e-12


# total * K / n for 100 increments of 2.0: lanes above it bisect
CROSSOVER_BUDGET = 2.0 * windows._BISECT_STEP_COST


class TestBudgetWalk:
    @pytest.mark.parametrize("side", ["left", "right"])
    @given(walk_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_lane_matches_one_lane_oracle(self, side, case):
        increments, budgets = case
        lanes = lane_chases(np.cumsum(increments), budgets, side)
        for (got, _), budget in zip(lanes, budgets):
            assert got == oracles.budget_spans(increments, budget, side)
        assert {bisect for _, bisect in lanes} == {False, True}

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "increments, budgets, bisect",
        [
            # all-zero magnitudes: a zero total sends every lane to bisect
            (np.zeros(50), [1e-17, 1.0], [True, True]),
            # 1e-17 is below every nonzero increment; 1e9 is above the total
            (np.linspace(0.0, 2.0, 60), [1e-17, 1e9], [False, True]),
            # a bisect lane whose budget one increment exceeds: that index is a window
            (np.where(np.arange(100) == 49, 100.0, 0.0), [1.0, 50.0], [False, True]),
            # just below, at and just above the crossover budget total * K / n
            (
                np.full(100, 2.0),
                [CROSSOVER_BUDGET * (1 - 1e-12), CROSSOVER_BUDGET, CROSSOVER_BUDGET * (1 + 1e-12)],
                [False, False, True],
            ),
        ],
    )
    def test_fixed_lanes_match_oracle_on_their_chase(self, side, increments, budgets, bisect):
        lanes = lane_chases(np.cumsum(increments), np.array(budgets), side)
        assert [b for _, b in lanes] == bisect
        for (got, _), budget in zip(lanes, budgets):
            assert got == oracles.budget_spans(increments, budget, side)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_doubling_lanes_around_powers_of_two(self, side, k):
        """Table lanes of 2**k - 1, 2**k and 2**k + 1 two-index windows, and
        all-singleton lanes (a path n + 1 long) over as many indices; k = 1
        includes n = 1."""
        cases = [(np.ones(2 * w), 2.0, w) for w in (2**k - 1, 2**k, 2**k + 1)]
        cases += [(np.ones(m), 0.5, m) for m in (2**k - 1, 2**k, 2**k + 1)]
        for increments, budget, n_windows in cases:
            cum = np.cumsum(increments)
            (edges,) = walk_lanes(cum, [budget], side)
            assert edges.dtype == np.intp and len(edges) == n_windows + 1
            assert np.all(np.diff(edges) > 0)
            ((spans, bisect),) = lane_chases(cum, [budget], side)
            assert not bisect
            assert spans == oracles.budget_spans(increments, budget, side)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_sparse_lanes_batch_at_n_edges_and_before_a_table_lane(self, side):
        """Sparse lanes holding more than n edges in all, a table lane, then
        sparse lanes again, in no sorted order: each lane equals its oracle,
        in budget order; the buffer closes at n edges and before the table lane."""
        increments = np.full(100, 2.0)
        sparse = [CROSSOVER_BUDGET * (4.0 - 0.1 * j) for j in range(30)]
        budgets = sparse + [CROSSOVER_BUDGET / 4] + sparse[:5]
        expected = [oracles.budget_spans(increments, b, side) for b in budgets]
        assert sum(len(spans) + 1 for spans in expected[:30]) > len(increments)
        lanes = lane_chases(np.cumsum(increments), budgets, side)
        assert lanes == [(spans, b != budgets[30]) for spans, b in zip(expected, budgets)]
        batches = [(len(e), len(s)) for e, s in budget_walk(np.cumsum(increments), budgets, side)]
        lanes_before = np.cumsum([0] + [lanes_in for _, lanes_in in batches]).tolist()
        table = lanes_before.index(30)  # the first batch after lane 30: the table lane
        assert batches[table][1] == 1 and table >= 2  # the first n edges closed a batch
        assert batches[0][0] >= len(increments) and batches[0][1] > 1
        assert max(size for size, _ in batches) < len(increments) + max(map(len, expected)) + 1

    def test_empty_prefix_sums_are_named(self):
        with pytest.raises(ValueError, match="prefix sums are empty"):
            next(budget_walk(np.empty(0), [1.0], "right"))

    def test_right_stays_within_budget_left_reaches_it(self):
        cum = np.cumsum([0.5, 0.5, 0.5, 0.5, 0.5])
        budgets = np.array([0.75, 1.0])
        assert lane_spans(cum, budgets, "right") == [
            [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)],
            [(0, 1), (2, 3), (4, 4)],
        ]
        assert lane_spans(cum, budgets, "left") == [
            [(0, 1), (2, 3), (4, 4)],
            [(0, 1), (2, 3), (4, 4)],
        ]


class TestDynamicLabel:
    def test_huge_budget_single_window_tie_positive(self):
        out = dynamic_label(make_series([0.4, -0.4, 0.4, -0.4]), 1e9)
        assert list(out) == [1, 1, 1, 1]  # window sum 0 -> +1

    def test_two_window_split(self):
        out = dynamic_label(make_series([0.4, 0.4, -0.4, -0.4]), 0.8)
        assert list(out) == [1, 1, -1, -1]

    def test_budget_below_min_is_pointwise(self):
        scores = np.array([0.5, -0.7, 0.2, -0.1])
        out = dynamic_label(make_series(scores), 0.05)
        assert np.array_equal(out, np.where(scores >= 0, 1, -1))

    @given(grid_score_lists, st.floats(min_value=0.05, max_value=20, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, scores, beta):
        got = dynamic_label(make_series(scores), beta)
        assert np.array_equal(got, oracles.dynamic_labels(scores, beta))

    @given(grid_score_lists, st.floats(min_value=0.05, max_value=5, allow_nan=False),
           pow2_factors)
    @settings(max_examples=40, deadline=None)
    def test_scale_covariance(self, scores, beta, c):
        base = dynamic_label(make_series(scores), beta)
        scaled = dynamic_label(make_series(np.asarray(scores) * c), beta * c)
        assert np.array_equal(base, scaled)


class TestTuneDynamic:
    def test_singleton_grid_returned(self):
        series = make_series([0.5, -0.5, 0.4])
        grid = ThresholdGrid(np.array([0.3]), 1.0)
        tuned = tune_dynamic(series, grid)
        assert tuned.parameter == pytest.approx(0.3)
        assert tuned.kind == "dynamic"

    def test_perfect_grid_member_reaches_zero(self):
        series = make_series([0.5, -0.5, 0.5, -0.5])
        grid = make_threshold_grid(series, 10, 1.0)
        assert tune_dynamic(series, grid).training_error == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        n = int(rng.integers(5, 50))
        series = make_series(rng.normal(0, 1, n), rng.choice([-1, 1], n))
        grid = make_threshold_grid(series, 15, 1.0)
        tuned = tune_dynamic(series, grid)
        beta_ref, err_ref = oracles.tune_dynamic(
            series.scores, series.truths, grid.thresholds
        )
        assert tuned.parameter == pytest.approx(beta_ref)
        assert tuned.training_error == pytest.approx(err_ref)

    @given(tuning_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_exactly(self, case):
        scores, truths, budgets = case
        tuned = tune_dynamic(make_series(scores, truths), ThresholdGrid(budgets, 1.0))
        beta_ref, err_ref = oracles.tune_dynamic(scores, truths, budgets)
        assert (tuned.parameter, tuned.training_error) == (beta_ref, err_ref)

    def test_tied_errors_go_to_smallest_budget(self):
        # Errors over the grid are 2, 2, 1, 1: budget 0.75 first pairs the
        # opening scores, and 1.25 ties it.
        series = make_series([0.5, -0.25, 0.5, -0.5], truths=[1, 1, 1, 1])
        grid = ThresholdGrid(np.array([0.25, 0.5, 0.75, 1.25]), 1.0)
        tuned = tune_dynamic(series, grid)
        assert (tuned.parameter, tuned.training_error) == (0.75, 1.0)

    def test_rejects_non_sign_truths(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            tune_dynamic(make_series([0.5, -0.5], truths=[1, 0]), ThresholdGrid(np.array([1.0]), 1.0))


class TestApply:
    def test_static_width_one_is_unfiltered(self):
        scores = np.array([0.2, -0.4, 0.6])
        tuned = TunedFilter("static", 1.0, 0.0)
        out = apply(tuned, make_series(scores))
        assert np.array_equal(out, np.where(scores >= 0, 1, -1))

    def test_dynamic_below_min_is_unfiltered(self):
        scores = np.array([0.2, -0.4, 0.6])
        tuned = TunedFilter("dynamic", 0.01, 0.0)
        out = apply(tuned, make_series(scores))
        assert np.array_equal(out, np.where(scores >= 0, 1, -1))

    def test_same_pattern_series_gets_same_error(self):
        train = make_series([0.4, 0.5, -0.3, -0.6], truths=[1, 1, -1, 1])
        tuned = tune_static(train, default_size_grid(4))
        test = make_series(train.scores.copy(), truths=train.truths.copy())
        test_err = oracles.mean_square_label_error(apply(tuned, test), test.truths)
        assert test_err == pytest.approx(tuned.training_error)

    def test_unknown_kind_rejected(self):
        bogus = TunedFilter("nope", 1.0, 0.0)  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="kind"):
            apply(bogus, make_series([1.0]))


class TestTuningIsArgmin:
    @pytest.mark.parametrize("seed", range(4))
    def test_static_no_grid_member_beats_choice(self, seed):
        rng = np.random.default_rng(20 + seed)
        series = make_series(rng.normal(0, 1, 30), rng.choice([-1, 1], 30))
        grid = default_size_grid(12)
        tuned = tune_static(series, grid)
        for alpha in grid.sizes:
            err = oracles.mean_square_label_error(static_label(series, alpha), series.truths)
            assert tuned.training_error <= err + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_dynamic_no_grid_member_beats_choice(self, seed):
        rng = np.random.default_rng(30 + seed)
        series = make_series(rng.normal(0, 1, 30), rng.choice([-1, 1], 30))
        grid = make_threshold_grid(series, 12, 1.0)
        tuned = tune_dynamic(series, grid)
        for beta in grid.thresholds:
            err = oracles.mean_square_label_error(
                dynamic_label(series, float(beta)), series.truths
            )
            assert tuned.training_error <= err + 1e-12


@pytest.mark.parametrize("lam", [1.0, 100.0])
def test_tune_dynamic_memory_is_one_lane_at_a_time(lam):
    # 1,000 instances, 100 budgets: a lanes x n table would alone exceed the bound.
    rng = np.random.default_rng(5)
    series = make_series(rng.normal(0, 1, 1000), np.repeat([-1, 1, -1, 1], 250))
    grid = make_threshold_grid(series, 100, lam)
    tracemalloc.start()
    try:
        tune_dynamic(series, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_size_grid_sorts_and_dedupes():
    grid = WindowSizeGrid((5, 1, 5, 3))
    assert grid.sizes == (1, 3, 5)
    with pytest.raises(ValueError):
        WindowSizeGrid((0, 2))
    with pytest.raises(ValueError):
        WindowSizeGrid(())


def test_oracles_import_nothing_from_the_package():
    # An oracle that reused, say, windows.prefix_sums would check the code against itself.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert not [m for m in modules if m.startswith(".") or m.split(".")[0] == "windowlab"]
