"""Metamorphic relations of the pipeline: transform an input, predict the output.

The oracles in ``oracles.py`` share formulas with the package (the score
formula, the ladder order), so a defect in a shared formula passes both.
These relations need no second implementation, and each holds bit for bit:
a power-of-two factor or a negation commutes with rounding, and a lane's
error does not depend on the other lanes of its grid.

* scores x 4: ``tune_static`` keeps its width and error; ``tune_dynamic``'s
  budget is exactly 4x, with the same error; test labels are unchanged;
* scores and truths negated: both filters keep their parameter and error, and
  test labels are negated (a draw with a window summing to exactly 0 is skipped);
* a grid cut down to one value gives that value's error, so the tuned value is
  the first whose one-value grid has the least error;
* features x 4: the DCA's signals, vote sums and labels are unchanged;
* ``(w, b)`` x 2: ``score_series`` gives the same bytes.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from windowlab.datagen import InstanceSeries
from windowlab.dca import DCAPopulation, init_lifespans, preprocess, run_dca, run_dca_scores
from windowlab.svm import LinearModel, ScoreSeries, score_series
from windowlab.windows import (
    ThresholdGrid,
    WindowSizeGrid,
    apply,
    default_size_grid,
    make_threshold_grid,
    tune_dynamic,
    tune_static,
)

EXAMPLES = settings(max_examples=60, deadline=None)
LAMBDAS = st.sampled_from([0.3, 1.0, 100.0])  # many windows per budget, and few


def segments(rng, n):
    """Truths in 1-8 class segments, often unbalanced, so the straddling pair
    and the count of positives both matter."""
    cuts = np.sort(rng.choice(np.arange(1, n), min(int(rng.integers(0, 8)), n - 1), replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [n]]))
    p = rng.choice([0.2, 0.5, 0.8])
    return np.repeat(rng.choice([-1, 1], lengths.size, p=[p, 1 - p]), lengths)


@st.composite
def score_splits(draw):
    """A train and a test score series: noisy class means, continuous scores."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift, spread = rng.choice([0.0, 0.5, 2.0]), rng.choice([0.3, 1.0, 3.0])
    splits = []
    for n in rng.integers(2, 301, 2):
        truths = segments(rng, n)
        splits.append(ScoreSeries(rng.normal(truths * shift, spread), truths))
    return splits


def scaled(series: ScoreSeries, factor: float) -> ScoreSeries:
    return ScoreSeries(series.scores * factor, series.truths)


def negated(series: ScoreSeries) -> ScoreSeries:
    return ScoreSeries(-series.scores, -series.truths)


def has_zero_window(series: ScoreSeries, lanes) -> bool:
    """Whether any window of the oracle's lanes sums to exactly 0."""
    cum = [0.0] + oracles.prefix_sums(series.scores)
    return any(cum[end + 1] == cum[start] for spans in lanes for start, end in spans)


class TestScaledScores:
    @EXAMPLES
    @given(score_splits(), st.integers(1, 40))
    def test_static_keeps_its_width_error_and_labels(self, splits, m):
        train, test = splits
        tuned = tune_static(train, default_size_grid(m))
        assert tune_static(scaled(train, 4.0), default_size_grid(m)) == tuned
        assert np.array_equal(apply(tuned, scaled(test, 4.0)), apply(tuned, test))

    @EXAMPLES
    @given(score_splits(), st.integers(1, 40), LAMBDAS)
    def test_dynamic_budget_scales_with_its_error_and_labels_kept(self, splits, m, lam):
        train, test = splits
        tuned = tune_dynamic(train, make_threshold_grid(train, m, lam))
        big = tune_dynamic(scaled(train, 4.0), make_threshold_grid(scaled(train, 4.0), m, lam))
        assert big.parameter == 4.0 * tuned.parameter
        assert big.training_error == tuned.training_error
        assert np.array_equal(apply(big, scaled(test, 4.0)), apply(tuned, test))


class TestNegatedScoresAndTruths:
    @EXAMPLES
    @given(score_splits(), st.integers(1, 40))
    def test_static_keeps_its_width_and_error_and_negates_labels(self, splits, m):
        train, test = splits
        grid = default_size_grid(m)
        lanes = [oracles.static_spans(len(s), a) for s in splits for a in grid.sizes]
        assume(not has_zero_window(train, lanes[:m]) and not has_zero_window(test, lanes[m:]))
        tuned = tune_static(train, grid)
        assert tune_static(negated(train), grid) == tuned
        assert np.array_equal(apply(tuned, negated(test)), -apply(tuned, test))

    @EXAMPLES
    @given(score_splits(), st.integers(1, 40), LAMBDAS)
    def test_dynamic_keeps_its_budget_and_error_and_negates_labels(self, splits, m, lam):
        train, test = splits
        grid = make_threshold_grid(train, m, lam)
        lanes = [oracles.dynamic_spans(train.scores, b) for b in grid.thresholds]
        assume(not has_zero_window(train, lanes))
        tuned = tune_dynamic(train, grid)
        assume(not has_zero_window(test, [oracles.dynamic_spans(test.scores, tuned.parameter)]))
        flipped = tune_dynamic(negated(train), make_threshold_grid(negated(train), m, lam))
        assert flipped == tuned
        assert np.array_equal(apply(tuned, negated(test)), -apply(tuned, test))


class TestOneValueGrids:
    @EXAMPLES
    @given(score_splits(), st.integers(1, 40))
    def test_static_width_is_the_first_least_one_width_error(self, splits, m):
        train, _ = splits
        grid = default_size_grid(m)
        errors = [tune_static(train, WindowSizeGrid((a,))).training_error for a in grid.sizes]
        tuned = tune_static(train, grid)
        best = int(np.argmin(errors))
        assert (tuned.parameter, tuned.training_error) == (grid.sizes[best], errors[best])

    @EXAMPLES
    @given(score_splits(), st.integers(1, 40), LAMBDAS)
    def test_dynamic_budget_is_the_first_least_one_budget_error(self, splits, m, lam):
        train, _ = splits
        grid = make_threshold_grid(train, m, lam)
        errors = [tune_dynamic(train, ThresholdGrid(np.array([b]), lam)).training_error
                  for b in grid.thresholds]
        tuned = tune_dynamic(train, grid)
        best = int(np.argmin(errors))
        assert (tuned.parameter, tuned.training_error) == (grid.thresholds[best], errors[best])


@st.composite
def feature_splits(draw):
    """Two noisy features whose class means differ, in class segments."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(4, 301))
    labels = segments(rng, n)
    labels[:2] = [-1, 1]
    means = rng.normal(0.0, 1.0, (2, 2))
    feats = rng.normal(means[(labels > 0).astype(int)], rng.choice([0.1, 1.0]))
    return InstanceSeries(feats, labels)


class TestScaledFeatures:
    @EXAMPLES
    @given(feature_splits(), st.integers(1, 40), LAMBDAS)
    def test_dca_signals_votes_and_labels_are_unchanged(self, split, m, lam):
        base = preprocess(split)
        big = preprocess(InstanceSeries(split.features * 4.0, split.labels))
        for a, b in ((base.safe, big.safe), (base.danger, big.danger),
                     (base.mapping.correlations, big.mapping.correlations)):
            assert a.tobytes() == b.tobytes()
        population = DCAPopulation.from_lifespans(init_lifespans(base, m, lam))
        big_population = DCAPopulation.from_lifespans(init_lifespans(big, m, lam))
        votes = run_dca_scores(base, population)
        assert run_dca_scores(big, big_population).tobytes() == votes.tobytes()
        assert np.array_equal(run_dca(big, big_population), run_dca(base, population))


class TestScaledHyperplane:
    @EXAMPLES
    @given(feature_splits(), st.integers(0, 2**32 - 1))
    def test_doubled_weights_and_bias_give_the_same_score_bytes(self, split, seed):
        rng = np.random.default_rng(seed)
        w, b = rng.normal(0.0, 3.0, 2), float(rng.normal(0.0, 3.0))
        model = LinearModel(w=w, b=b, alphas=np.zeros(len(split)), C=1.0)
        doubled = LinearModel(w=2.0 * w, b=2.0 * b, alphas=model.alphas, C=1.0)
        scores = score_series(model, split).scores
        assert score_series(doubled, split).scores.tobytes() == scores.tobytes()
