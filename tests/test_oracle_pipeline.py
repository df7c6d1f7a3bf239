"""The whole pipeline against the oracles, cell by cell.

``run_experiment`` fills a small suite with all six methods; each dataset is
then recomputed from ``oracles`` alone: the model by the literal pair-update
solver, the train and test scores, the budget grids, tuning, labels, and the
DCA after a loop-built preprocess.  Error rates and tuned parameters must be
equal, not close.  At 200 instances most lambda = 100 lanes are sparse, so
both ways of walking a budget lane are on the path.
"""

import numpy as np
import pytest

import oracles
from windowlab.datagen import generate_benchmark_suite
from windowlab.harness import ALL_METHODS, ExperimentConfig, Method, run_experiment

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


def oracle_cells(dataset):
    """(error rate, tuned parameter) per method, from the oracles alone."""
    train, test = dataset.train, dataset.test
    model = oracles.smo_train(train.features, train.labels, CONFIG.svm_c)
    train_scores, test_scores = oracle_scores(model, train), oracle_scores(model, test)

    def error(labels):
        return sum(1 for a, b in zip(labels, test.labels) if a != b) / len(test)

    cells = {Method.LNC: (error([oracles.sign_plus(s) for s in test_scores]), None)}
    alpha, _ = oracles.tune_static(train_scores, train.labels, range(1, CONFIG.window_grid + 1))
    cells[Method.SMOV] = (error(oracles.static_labels(test_scores, alpha)), float(alpha))
    peak = max(abs(s) for s in train_scores)
    safe, danger = oracles.dca_signals(test.features, test.labels)
    peak_csm = max(s + d for s, d in zip(safe, danger))
    for dmov, dca, lam in ((Method.DMOV1, Method.DCA1, CONFIG.lambda_low),
                           (Method.DMOV2, Method.DCA2, CONFIG.lambda_high)):
        budgets = oracles.budget_ladder(peak, CONFIG.threshold_grid, lam)
        beta, _ = oracles.tune_dynamic(train_scores, train.labels, budgets)
        cells[dmov] = (error(oracles.dynamic_labels(test_scores, beta)), beta)
        lifespans = oracles.budget_ladder(peak_csm, CONFIG.threshold_grid, lam)
        cells[dca] = (error(oracles.dca_labels(safe, danger, lifespans)), None)
    return cells


@pytest.mark.parametrize("index", range(CONFIG.n_datasets))
def test_every_cell_equals_the_oracle_pipeline(pipeline, index):
    cells, suite = pipeline
    expected = oracle_cells(suite[index])
    got = {method: cells[index, method] for method in ALL_METHODS}
    assert got == expected
