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
    ensemble_votes,
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
def ladder_cases(draw):
    """Increments on a 1/32 grid, zeros included, and a lambda = 1 ladder
    ``peak * l / m`` of m = 10..100 budgets: over the largest increment, as
    the package builds it, or over a peak that puts every budget on the grid,
    so targets often equal a prefix sum exactly."""
    steps = st.one_of(st.just(0), st.integers(min_value=1, max_value=96))
    increments = np.array(draw(st.lists(steps, min_size=1, max_size=150))) / 32.0
    assume(increments.any())
    m = draw(st.integers(min_value=10, max_value=100))
    if draw(st.booleans()):
        return increments, windows.budget_ladder(float(increments.max()), m, 1.0)
    peak = m * draw(st.integers(min_value=1, max_value=32)) / 32.0
    return increments, peak * np.arange(1, m + 1) / m


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
        errors = windows._lane_errors(make_series(scores, truths), batches)
        expected = [
            oracles.mean_square_label_error(oracles.static_labels(scores, a), truths) for a in sizes
        ]
        assert errors.tolist() == expected
        tuned = tune_static(make_series(scores, truths), WindowSizeGrid(sizes))
        assert (tuned.parameter, tuned.training_error) == oracles.tune_static(scores, truths, sizes)


class TestOneLaneCountParity:
    """A one-lane batch counts its wrong labels as one product of its window
    sums.  Every term is a whole number, so the count is exact in any summation
    order, on any BLAS kernel, and equals the batched masked sums bit for bit."""

    @pytest.mark.parametrize("seed", range(16))
    def test_one_width_per_batch_equals_the_batched_widths(self, seed):
        """Even seeds draw uneven truths; odd ones copy a width's labels, so a
        lane has none wrong and the one-per-batch count stops there."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 150))
        scores = rng.normal(0.1, 1.0, n)
        if seed % 2:
            truths = oracles.static_labels(scores, int(rng.integers(1, n + 1)))
        else:
            truths = rng.choice([-1, 1], n, p=[0.3, 0.7])
        series, sizes, taken = make_series(scores, truths), np.arange(1, n + 1), []

        def one_per_batch():
            for alpha in sizes:
                taken.append(int(alpha))
                yield from windows._static_batches(n, sizes[alpha - 1 : alpha])

        one = windows._lane_errors(series, one_per_batch())
        batched = windows._lane_errors(series, windows._static_batches(n, sizes))
        expected = [oracles.mean_square_label_error(oracles.static_labels(scores, a), truths)
                    for a in taken]
        assert one.tolist() == expected and 0.0 not in expected[:-1]
        if seed % 2:  # the copied width, or one before it, has none wrong
            assert expected[-1] == 0.0
        else:
            assert len(one) == len(batched) == n
        assert one.tobytes() == batched[: len(one)].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_a_walks_table_lanes_equal_the_same_lanes_in_one_batch(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = 300
        series = make_series(rng.normal(0.1, 1.0, n), rng.choice([-1, 1], n, p=[0.4, 0.6]))
        grid = make_threshold_grid(series, 100, 1.0)
        walk = list(budget_walk(np.cumsum(np.abs(series.scores)), grid.thresholds, "right"))
        assert all(len(starts) == 1 for _, starts in walk)
        lanes = [edges for edges, _ in walk]
        joined = np.concatenate(lanes), np.cumsum([0] + [len(e) for e in lanes[:-1]])
        one = windows._lane_errors(series, walk)
        assert one.tobytes() == windows._lane_errors(series, [joined])[: len(one)].tobytes()
        expected = [oracles.mean_square_label_error(oracles.dynamic_labels(series.scores, b),
                                                    series.truths) for b in grid.thresholds]
        assert one.tolist() == expected[: len(one)]


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

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_ladder_rejects_a_scale_factor_that_is_not_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match=f"scale factor must be positive and finite, got {lam}"):
            windows.budget_ladder(1.0, 10, lam)

    @pytest.mark.parametrize("m", [2.5, 0.5, 0, -3, np.nan, np.inf])
    def test_ladder_rejects_a_size_that_is_not_a_whole_number(self, m):
        with pytest.raises(ValueError, match=f"ladder size must be a whole number >= 1, got {m}"):
            windows.budget_ladder(1.0, m, 1.0)

    def test_ladder_takes_a_whole_float_size_as_an_integer(self):
        ladder = windows.budget_ladder(2.0, 3.0, 5.0)
        assert ladder.tolist() == windows.budget_ladder(2.0, 3, 5.0).tolist()
        assert len(ladder) == 3 and ladder[-1] == 10.0

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


def batch_shapes(magnitudes, budgets):
    """(edges, lanes) of each batch of the "left" walk behind ``ensemble_votes``."""
    return [(len(e), len(s)) for e, s in budget_walk(np.cumsum(magnitudes), budgets, "left")]


class TestEnsembleVotes:
    """Magnitudes and evidence that no DCA signal pair gives (there |k| <= csm,
    and k = 0 wherever csm = 0): the vote sums are the bytes of a replay that
    adds each window's vote to a difference array, window by window."""

    def assert_replay_bytes(self, magnitudes, evidence, budgets):
        got = ensemble_votes(magnitudes, evidence, budgets)
        assert got.tobytes() == oracles.ensemble_vote_sums(magnitudes, evidence, budgets).tobytes()

    @given(walk_cases(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_walk_in_any_budget_order(self, case, seed):
        increments, budgets = case
        rng = np.random.default_rng(seed)
        self.assert_replay_bytes(increments, rng.normal(0.0, 20.0, len(increments)),
                                 rng.permutation(budgets))

    def test_evidence_larger_than_the_magnitude(self):
        rng = np.random.default_rng(50)
        magnitudes, evidence = rng.uniform(0.0, 0.1, 300), rng.normal(0.0, 5.0, 300)
        assert np.mean(np.abs(evidence) > magnitudes) > 0.9
        self.assert_replay_bytes(magnitudes, evidence, windows.budget_ladder(0.1, 60, 1.0))

    def test_runs_of_zero_magnitude(self):
        # A zero run joins the window before it; evidence there still votes.
        magnitudes = np.repeat([0.0, 0.5, 0.0, 2.0, 0.0, 0.25], [12, 30, 25, 6, 40, 20])
        evidence = np.random.default_rng(51).normal(0.0, 1.0, len(magnitudes))
        budgets = windows.budget_ladder(2.0, 40, 1.0).tolist() + [1e-17, 100.0]
        self.assert_replay_bytes(magnitudes, evidence, budgets)

    def test_a_ladder_across_the_bisect_switch(self):
        magnitudes = np.full(100, 2.0)
        evidence = np.random.default_rng(52).normal(0.0, 3.0, 100)
        budgets = CROSSOVER_BUDGET * np.linspace(0.25, 4.0, 40)
        lanes = [lanes for _, lanes in batch_shapes(magnitudes, budgets)]
        assert 1 in lanes and max(lanes) > 1  # table lanes, then batches of bisect lanes
        self.assert_replay_bytes(magnitudes, evidence, budgets)

    def test_an_unsorted_ladder(self):
        rng = np.random.default_rng(53)
        magnitudes, evidence = rng.uniform(0.0, 1.0, 150), rng.normal(0.0, 1.0, 150)
        budgets = rng.permutation(windows.budget_ladder(1.0, 50, 1.0))
        assert all(lanes == 1 for _, lanes in batch_shapes(magnitudes, budgets))  # table lanes
        self.assert_replay_bytes(magnitudes, evidence, budgets)

    def test_a_lane_yielded_again(self):
        # Magnitude 0.5 everywhere: a budget step of 1/6 moves no window end
        # twice in three, and the repeated lane votes once per budget.
        magnitudes = np.full(120, 0.5)
        evidence = np.random.default_rng(54).integers(-9, 10, 120) / 4.0
        budgets = windows.budget_ladder(0.5, 30, 10.0)
        walk = [edges for edges, _ in budget_walk(np.cumsum(magnitudes), budgets, "left")]
        assert sum(a is b for a, b in zip(walk, walk[1:])) == 16
        self.assert_replay_bytes(magnitudes, evidence, budgets)


# 120 grid increments with zeros: mean 0.078, so lambda = 1 ladders over the
# peak 0.25 step 0.0025 and stay dense (under the crossover 0.625).
GRID_INCREMENTS = np.array([0, 3, 1, 0, 0, 5, 2, 8, 1, 0, 4, 6] * 10) / 32.0
GRID_LADDER = windows.budget_ladder(0.25, 100, 1.0)
# One index of 64 lifts the mean to 0.61: a lambda = 1 step of 0.64 exceeds it.
SPIKED = np.where(np.arange(120) == 57, 64.0, GRID_INCREMENTS)


def window_ends(increments, budget, side):
    """Every start's window end, one index at a time: the successor table a
    walk keeps, from the rule in ``budget_walk``'s docstring."""
    cum = np.cumsum(increments)
    n = len(cum)
    ends = []
    for start in range(n):
        target = (cum[start - 1] if start else 0.0) + budget
        end = start + 1
        if side == "right":
            while end < n and cum[end] <= target:
                end += 1
        else:
            while end < n and cum[end - 1] < target:
                end += 1
        ends.append(end)
    return ends


class SearchLog(np.ndarray):
    """Prefix sums that log how many targets each ``searchsorted`` call takes,
    on themselves or on any array made from them (a view, or the plain result
    of a function such as ``np.concatenate``), into one shared log."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_function__(self, func, types, args, kwargs):
        result = super().__array_function__(func, types, args, kwargs)
        if type(result) is np.ndarray:
            result = result.view(SearchLog)
            result.log = self.log
        return result

    def searchsorted(self, v, side="left", sorter=None):
        self.log.append(np.size(v))
        return np.asarray(self).searchsorted(v, side, sorter)


class TestTableReuse:
    """A table lane whose budget is a small step above the last table lane's
    re-searches only the ends that step passed; edges equal the oracle's."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @given(ladder_cases())
    @settings(max_examples=100, deadline=None)
    def test_every_ladder_lane_matches_one_lane_oracle(self, side, case):
        increments, budgets = case
        expected = [oracles.budget_spans(increments, b, side) for b in budgets]
        assert lane_spans(np.cumsum(increments), budgets, side) == expected

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "increments, budgets",
        [
            (GRID_INCREMENTS, GRID_LADDER),
            # ends in 3/32 then 0: near the end a step's targets pass the total
            (GRID_INCREMENTS[::-1], GRID_LADDER),
            (GRID_INCREMENTS, GRID_LADDER[::-1]),  # every step goes down
            (GRID_INCREMENTS, np.repeat(GRID_LADDER, 2)),  # steps of zero
            (SPIKED, windows.budget_ladder(64.0, 100, 1.0)),
            # sparse lanes (above 0.625) between table lanes keep the table
            (GRID_INCREMENTS, np.insert(GRID_LADDER, range(0, 100, 7), 2.5)),
            # budgets the prefix sums absorb: ends stay on the one-index floor
            (GRID_INCREMENTS, 1e-17 * np.arange(1, 11)),
        ],
    )
    def test_fixed_ladders_match_oracle(self, side, increments, budgets):
        expected = [oracles.budget_spans(increments, b, side) for b in budgets]
        assert lane_spans(np.cumsum(increments), budgets, side) == expected

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "increments, budgets, rebuilds, searches",
        [
            (GRID_INCREMENTS, GRID_LADDER, 1, {"left": 8, "right": 8}),
            (GRID_INCREMENTS, GRID_LADDER[::-1], 100, {"left": 100, "right": 100}),
            # lambda = 100: each step is the peak, at least the mean
            (
                GRID_INCREMENTS,
                windows.budget_ladder(0.25, 100, 100.0)[:2],
                2,
                {"left": 2, "right": 2},
            ),
            (SPIKED, windows.budget_ladder(64.0, 100, 1.0)[:7], 7, {"left": 7, "right": 7}),
        ],
    )
    def test_small_steps_reuse_the_table_and_others_rebuild(
        self, side, increments, budgets, rebuilds, searches
    ):
        """One search per lane, except a small step that moves no end: it
        searches nothing and yields the last lane again, whose ends it keeps."""
        cum = np.cumsum(increments).view(SearchLog)
        cum.log = []
        lanes = [edges for edges, _ in budget_walk(cum, budgets, side)]
        assert len(lanes) == len(budgets)  # every lane a table lane
        full = len(increments) + 1
        assert len(cum.log) == searches[side]
        assert cum.log[0] == full
        assert sum(size == full for size in cum.log) == rebuilds
        reused = [k for k in range(1, len(lanes)) if lanes[k] is lanes[k - 1]]
        assert len(reused) == len(budgets) - searches[side]
        for k in reused:
            assert 0 <= budgets[k] - budgets[k - 1] < cum[-1] / len(increments)
            assert window_ends(increments, budgets[k], side) == window_ends(
                increments, budgets[k - 1], side
            )
        assert not any(edges.flags.writeable for edges in lanes)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "increments, budgets",
        [
            (GRID_INCREMENTS, np.full(10, 0.1)),  # steps of zero
            # every prefix sum is at least 1.0, whose half ulp exceeds 1e-16,
            # and the first index is far above the budgets: no target moves
            (GRID_INCREMENTS + 1.0, 1e-17 * np.arange(1, 11)),
            # prefix sums on multiples of 3, and a last index over every budget,
            # so no end moves between 3 and 6; steps of 0.1 under the mean 1.24
            # add up to 1.5, so each step is measured from the lane before it
            (np.array([0, 0, 0, 3] * 25 + [50.0]), 3.5 + 0.1 * np.arange(16)),
        ],
    )
    def test_steps_that_move_no_end_yield_the_first_lane_again(self, side, increments, budgets):
        cum = np.cumsum(increments).view(SearchLog)
        cum.log = []
        lanes = [edges for edges, _ in budget_walk(cum, budgets, side)]
        assert cum.log == [len(increments) + 1]  # only the first lane searches
        assert all(edges is lanes[0] for edges in lanes)
        for edges, budget in zip(lanes, budgets):
            assert spans_of(edges) == oracles.budget_spans(increments, budget, side)
        with pytest.raises(ValueError, match="read-only"):
            lanes[0][1] = 0

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "increments",
        [
            # the last index is above every budget, so no window reaches n before it
            pytest.param(np.append(GRID_INCREMENTS, 50.0), id="last-index-above-budgets"),
            # ends in 5/32, 0, 0, 1/32, 3/32, 0: the windows of 2, then 5, then 6
            # starts reach n as the budget grows, and stay there
            pytest.param(GRID_INCREMENTS[::-1], id="windows-reach-n"),
        ],
    )
    def test_each_step_searches_exactly_the_ends_it_moves(self, side, increments):
        """An end moved by one step and passed again two steps later is searched
        at each of those steps and at no step between, which moves no end and
        yields the last lane again.  An end at n cannot move and is not searched."""
        # odd multiples of 1/128: every other step of 1/64 crosses a multiple of
        # 1/32, where ends can move; the steps between cross none
        budgets = np.arange(1, 40, 2) / 128
        cum = np.cumsum(increments).view(SearchLog)
        cum.log = []
        lanes = [edges for edges, _ in budget_walk(cum, budgets, side)]
        ends = np.array([window_ends(increments, b, side) for b in budgets])
        moves = ends[1:] != ends[:-1]
        assert cum.log == [len(increments) + 1] + [k for k in moves.sum(1).tolist() if k]
        assert [b is a for a, b in zip(lanes, lanes[1:])] == (~moves.any(1)).tolist()
        # some start moves at a step, not at the next, and again at the one after
        assert np.any(moves[:-2] & ~moves[1:-1] & moves[2:])
        for edges, budget in zip(lanes, budgets):
            assert spans_of(edges) == oracles.budget_spans(increments, budget, side)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_each_rebuild_drops_the_ends_keys_the_last_re_search_kept(self, side):
        """Steps of 2/128 (moves 20 ends), 1/128 (moves none), down to 1/128
        (rebuilds), 4/128 (moves 20) and 1/128 (moves none): each re-search
        right after a rebuild reads the ends' keys of the rebuilt table."""
        budgets = np.array([3, 5, 6, 1, 5, 6]) / 128
        cum = np.cumsum(GRID_INCREMENTS).view(SearchLog)
        cum.log = []
        lanes = [edges for edges, _ in budget_walk(cum, budgets, side)]
        full = len(GRID_INCREMENTS) + 1
        assert cum.log == [full, 20, full, 20]
        assert [b is a for a, b in zip(lanes, lanes[1:])] == [False, True, False, False, True]
        for edges, budget in zip(lanes, budgets):
            assert spans_of(edges) == oracles.budget_spans(GRID_INCREMENTS, budget, side)

    @pytest.mark.parametrize(
        "budgets",
        [
            GRID_LADDER,
            np.repeat(GRID_LADDER, 2),  # steps of zero
            # sparse batches between table lanes: only a lane yielded again is copied
            np.insert(GRID_LADDER, range(0, 100, 7), 2.5),
        ],
    )
    def test_lane_errors_of_a_lane_yielded_again_equal_a_fresh_count(self, budgets):
        rng = np.random.default_rng(3)
        n = len(GRID_INCREMENTS)
        series = make_series(GRID_INCREMENTS * rng.choice([-1, 1], n), rng.choice([-1, 1], n))
        walk = list(budget_walk(np.cumsum(np.abs(series.scores)), budgets, "right"))
        assert any(a[0] is b[0] for a, b in zip(walk, walk[1:]))
        fresh = [(edges.copy(), starts.copy()) for edges, starts in walk]
        errors = windows._lane_errors(series, walk)
        assert errors.tolist() == windows._lane_errors(series, fresh).tolist()


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


def batches_taken(monkeypatch, name):
    """Per call of ``windows.<name>``, the batches tuning took from it and the
    batches the whole walk holds."""
    real, calls = getattr(windows, name), []

    def counted(*args):
        calls.append([0, sum(1 for _ in real(*args))])
        for batch in real(*args):
            calls[-1][0] += 1
            yield batch

    monkeypatch.setattr(windows, name, counted)
    return calls


def weak_pair(block):
    """Four blocks of ``block`` truths, +1 first, each scored by its sign but
    the first two: 0.25 and -0.125, so the second is wrong in a window alone."""
    truths = np.tile(np.repeat([1, -1], block), 2)
    scores = truths * 1.0
    scores[:2] = 0.25, -0.125
    return make_series(scores, truths)


def two_blocks(head):
    """40 instances, +1 for the first ``head``, scored by their signs but the
    last at -2: a 21-budget lambda = 100 ladder starts at about 9.52, 19.05, so
    its first lanes are windows of 9, then of 19, in one shared bisect batch."""
    truths = np.repeat([1, -1], [head, 40 - head])
    scores = truths * 1.0
    scores[-1] = -2.0
    return make_series(scores, truths)


SIGNS = make_series(np.repeat([1.0, -1.0, 1.0, -1.0], 10))


class TestTuningStopsAtTheFirstPerfectValue:
    """An error of 0 is least and ties go to the first value, so tuning takes no
    batch past the one holding the first lane with no wrong label."""

    @pytest.mark.parametrize("series, grid, index, taken", [
        # the first value is perfect: one batch, of width 1 alone
        pytest.param(SIGNS, default_size_grid(40), 0, 1, id="static-first"),
        # of the first table lane
        pytest.param(SIGNS, make_threshold_grid(SIGNS, 10, 1.0), 0, 1, id="lambda1-first"),
        # of 16 bisect lanes, the first perfect
        pytest.param(two_blocks(18), make_threshold_grid(two_blocks(18), 21, 100.0), 0, 1,
                     id="lambda100-first"),
        # widths 1 | 2 3 4 | ...: width 1 has one wrong, 2 two, 3 none
        pytest.param(weak_pair(9), default_size_grid(36), 2, 2, id="static-mid"),
        # budgets of 1/16 to 5/16 keep the -0.125 alone, 6/16 pairs it: 6 table lanes
        pytest.param(weak_pair(9), make_threshold_grid(weak_pair(9), 16, 1.0), 5, 6,
                     id="lambda1-mid"),
        # windows of 9 get one wrong, of 19 none: the second lane of the first batch
        pytest.param(two_blocks(19), make_threshold_grid(two_blocks(19), 21, 100.0), 1, 1,
                     id="lambda100-mid"),
    ])
    def test_batches_taken(self, monkeypatch, series, grid, index, taken):
        static = isinstance(grid, WindowSizeGrid)
        calls = batches_taken(monkeypatch, "_static_batches" if static else "budget_walk")
        tuned = (tune_static if static else tune_dynamic)(series, grid)
        params = grid.sizes if static else grid.thresholds
        assert (tuned.parameter, tuned.training_error) == (params[index], 0.0)
        (walk,) = calls
        assert walk[0] == taken < walk[1]
        labels = oracles.static_labels if static else oracles.dynamic_labels
        errors = [oracles.mean_square_label_error(labels(series.scores, p), series.truths)
                  for p in params[: index + 1]]
        assert errors[-1] == 0.0 not in errors[:-1]

    @pytest.mark.parametrize("kind", ["static", "dynamic"])
    def test_matches_the_oracle_wherever_the_zeros_fall(self, kind):
        """Truths copied from the oracle's labels at the first, middle and last
        grid value; nonnegative scores with +1 truths, where every value is
        perfect; and an opening score that outweighs the rest against a -1
        truth, where none is.  Grid scores and budgets, so labels are exact."""
        places = set()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 61))
            scores = rng.integers(-96, 97, n) / 32.0
            if kind == "static":
                params = tuple(range(1, int(rng.integers(2, n + 1)) + 1))
                grid, tune = WindowSizeGrid(params), tune_static
                labels, oracle = oracles.static_labels, oracles.tune_static
            else:
                params = np.unique(rng.integers(1, 64 * 8, 12)) / 64.0
                grid, tune = ThresholdGrid(params, 1.0), tune_dynamic
                labels, oracle = oracles.dynamic_labels, oracles.tune_dynamic
            outweighed = scores.copy()
            outweighed[0] = 1.0 + np.abs(scores[1:]).sum()
            cases = [(scores, labels(scores, params[k])) for k in (0, len(params) // 2, -1)]
            cases += [(np.abs(scores), np.ones(n, int)),
                      (outweighed, np.r_[-1, labels(outweighed, params[-1])[1:]])]
            for values, truths in cases:
                errors = [oracles.mean_square_label_error(labels(values, p), truths)
                          for p in params]
                zeros = [k for k, e in enumerate(errors) if e == 0.0]
                places.add("nowhere" if not zeros else "all tied" if len(zeros) == len(errors)
                           else {0: "first", len(errors) - 1: "last"}.get(zeros[0], "mid-grid"))
                tuned = tune(make_series(values, truths), grid)
                assert (tuned.parameter, tuned.training_error) == oracle(values, truths, params)
        assert places == {"first", "mid-grid", "last", "all tied", "nowhere"}


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


def test_package_modules_use_every_name_they_import():
    # The project runs no linter, so an import left behind by a deletion would
    # go unseen, and so would a module-level private name whose last reader in
    # the package was deleted: a helper used only by its own tests gets deleted.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(windows.__file__).parent.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    read |= {node.id for node in nodes
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused, defined = [], []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {n}" for n in imported if n not in used]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined += [(name, node.name)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, t.id) for target in targets for t in ast.walk(target)
                            if isinstance(t, ast.Name)]
    private = [(m, n) for m, n in defined if n.startswith("_") and not n.startswith("__")]
    assert len(private) >= 40  # the walk finds them
    unused += [f"{m}: {n} is never read" for m, n in private if n not in read]
    assert not unused
