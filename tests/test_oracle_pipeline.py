"""The whole pipeline against the oracles, cell by cell.

``run_experiment`` fills a small suite with all six methods; each dataset is
then recomputed from ``oracles`` alone: the model by the literal pair-update
solver, the train and test scores, the budget grids, tuning, labels, and the
DCA after a loop-built preprocess.  Error rates and tuned parameters must be
equal, not close.  At 200 instances most lambda = 100 lanes are sparse, so
both ways of walking a budget lane are on the path.  Generated train splits
are half positive, so one case tunes SMOV and DMOV on an unbalanced one.
"""

import numpy as np
import pytest

import oracles
from windowlab.datagen import InstanceSeries, generate_benchmark_suite
from windowlab.harness import (
    ALL_METHODS,
    DatasetInputs,
    ExperimentConfig,
    Method,
    method_labels,
    run_experiment,
)

CONFIG = ExperimentConfig(seed=20260808, n_datasets=6, n_train=200, n_test=200)


@pytest.fixture(scope="module")
def pipeline():
    table = run_experiment(CONFIG)
    cells = {(r.dataset_index, r.method): (r.error_rate, r.tuned_parameter) for r in table.rows}
    suite = generate_benchmark_suite(CONFIG.n_datasets, CONFIG.base_generator_config(), CONFIG.seed)
    return cells, suite


def oracle_scores(model, split):
    """Signed distances (x.w + b) / ||w||: the one formula the oracle shares."""
    return (split.features @ model["w"] + model["b"]) / np.linalg.norm(model["w"])


def oracle_filters(train_scores, truths, test_scores):
    """(test labels, tuned parameter, training error) of SMOV, DMOV1 and DMOV2."""
    alpha, error = oracles.tune_static(train_scores, truths, range(1, CONFIG.window_grid + 1))
    filters = {Method.SMOV: (oracles.static_labels(test_scores, alpha), float(alpha), error)}
    peak = max(abs(s) for s in train_scores)
    for method, lam in ((Method.DMOV1, CONFIG.lambda_low), (Method.DMOV2, CONFIG.lambda_high)):
        budgets = oracles.budget_ladder(peak, CONFIG.threshold_grid, lam)
        beta, error = oracles.tune_dynamic(train_scores, truths, budgets)
        filters[method] = (oracles.dynamic_labels(test_scores, beta), beta, error)
    return filters


def oracle_cells(dataset):
    """(error rate, tuned parameter) per method, from the oracles alone."""
    train, test = dataset.train, dataset.test
    model = oracles.smo_train(train.features, train.labels, CONFIG.svm_c)
    train_scores, test_scores = oracle_scores(model, train), oracle_scores(model, test)

    def error(labels):
        return sum(1 for a, b in zip(labels, test.labels) if a != b) / len(test)

    cells = {Method.LNC: (error([oracles.sign_plus(s) for s in test_scores]), None)}
    filters = oracle_filters(train_scores, train.labels, test_scores)
    for method, (labels, tuned, _) in filters.items():
        cells[method] = (error(labels), tuned)
    safe, danger = oracles.dca_signals(test.features, test.labels)
    peak_csm = max(s + d for s, d in zip(safe, danger))
    for method, lam in ((Method.DCA1, CONFIG.lambda_low), (Method.DCA2, CONFIG.lambda_high)):
        lifespans = oracles.budget_ladder(peak_csm, CONFIG.threshold_grid, lam)
        cells[method] = (error(oracles.dca_labels(safe, danger, lifespans)), None)
    return cells


@pytest.mark.parametrize("index", range(CONFIG.n_datasets))
def test_every_cell_equals_the_oracle_pipeline(pipeline, index):
    cells, suite = pipeline
    expected = oracle_cells(suite[index])
    got = {method: cells[index, method] for method in ALL_METHODS}
    assert got == expected


def test_an_unbalanced_train_split_tunes_like_the_oracles(pipeline):
    # q = index - 2 * (positives so far).  Unless zeroed, the pair of edges
    # that straddles two lanes adds -q[n] to a lane's wrong count when the
    # series' score sum is <= 0.  q[n] is 0 on a half-positive split; a train
    # split three quarters negative, with a score sum below 0, makes it count.
    _, suite = pipeline
    rng = np.random.default_rng(5)
    truths = np.repeat([-1, 1, -1, -1], 50)
    means = np.where(truths[:, None] > 0, 0.38, 0.2)
    train = InstanceSeries(rng.standard_normal((200, 2)) * 0.1 + means, truths)
    test = suite[2].test
    model = oracles.smo_train(train.features, train.labels, CONFIG.svm_c)
    train_scores, test_scores = oracle_scores(model, train), oracle_scores(model, test)
    assert train_scores.sum() < 0
    inputs = DatasetInputs(train, test, CONFIG.svm_c)
    filters = oracle_filters(train_scores, truths, test_scores)
    for method, (labels, tuned, error) in filters.items():
        got_labels, got = method_labels(method, inputs, CONFIG)
        assert (got.parameter, got.training_error) == (tuned, error), method
        np.testing.assert_array_equal(got_labels, labels)
