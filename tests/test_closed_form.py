"""LNC and SMOV test error against a closed form from the generator alone.

A test instance of class c has features ``mu_c * (1, 1)`` plus isotropic normal
noise of sd ``STDDEV`` (``mu_c`` is ``CLASS1_MEAN`` for normal instances and the
dataset's ``class2_mean`` for anomalous ones).  Its score ``(x . w + b) / ||w||``
projects that noise onto a unit direction, so it is exactly normal with sd
``STDDEV`` and mean ``m_c = (mu_c * (w0 + w1) + b) / ||w||``.  A width-alpha
window of ``n_neg`` normal and ``n_pos`` anomalous instances then sums to a
normal of mean ``n_neg * m_neg + n_pos * m_pos`` and sd ``STDDEV * sqrt(len)``,
and labels +1 with probability ``p = Phi(mean / sd)``: it gets its ``n_neg``
normal instances wrong with probability p, its ``n_pos`` anomalous ones
otherwise.  Windows hold disjoint instances, so the wrong count's mean and
variance are sums over windows.  LNC is the case alpha = 1.

The model and the tuned width depend on the train split alone, which is drawn
independently of the test split, so the formula holds given them.  It shares
nothing with the package but the trained ``(w, b)`` and the tuned width: the
labels are judged only by how many instances they get wrong.

A wrong count is off by ``z = (observed - expected) / sd``, its variance floored
at ``VARIANCE_FLOOR``: a count all but certain to be 0 has a variance near 0, so
one instance off reads as 5 sds, not thousands.  Each dataset's |z| must stay
within ``DATASET_Z`` (by Chebyshev, a correct count exceeds it with probability
at most 1 / DATASET_Z**2) and the suite's, over all its datasets, within
``SUITE_Z``.  Windows one index wider than the tuned width move the suite by
under 2 sds, but datasets whose windows are all but certain by 20 or more;
scores that drop ``b`` move the suite by hundreds.
"""

import math

import numpy as np
import pytest

from windowlab.datagen import CLASS1_MEAN, STDDEV
from windowlab.harness import DatasetInputs, ExperimentConfig, Method, method_labels

DATASET_Z = 10.0
SUITE_Z = 4.0
VARIANCE_FLOOR = 0.04


def wrong_count_moments(w, b, class2_mean, truths, alpha):
    """Mean and variance of the wrong count of width-alpha windows over ``truths``."""
    norm = math.hypot(w[0], w[1])
    means = {mu: (mu * (w[0] + w[1]) + b) / norm for mu in (CLASS1_MEAN, class2_mean)}
    mean = variance = 0.0
    for start in range(0, len(truths), alpha):
        window = truths[start : start + alpha]
        n_neg, n_pos = int(np.sum(window < 0)), int(np.sum(window > 0))
        total = n_neg * means[CLASS1_MEAN] + n_pos * means[class2_mean]
        p = 0.5 * math.erfc(-total / (STDDEV * math.sqrt(len(window)) * math.sqrt(2.0)))
        mean += n_neg * p + n_pos * (1.0 - p)
        variance += p * (1.0 - p) * (n_neg - n_pos) ** 2
    return mean, variance


@pytest.fixture(scope="module")
def counts():
    """Per method, each dataset's (observed, expected, variance) wrong count."""
    config = ExperimentConfig(seed=20260808, n_datasets=20, methods=(Method.LNC, Method.SMOV))
    out = {method: [] for method in config.methods}
    for dataset in config.datasets():
        inputs = DatasetInputs(dataset.train, dataset.test, config.svm_c)
        truths = np.asarray(dataset.test.labels)
        for method in config.methods:
            labels, tuned = method_labels(method, inputs, config)
            alpha = 1 if tuned is None else int(tuned.parameter)
            moments = wrong_count_moments(
                inputs.model.w, inputs.model.b, dataset.config.class2_mean, truths, alpha
            )
            out[method].append((int(np.sum(labels != truths)), *moments))
    return {method: np.array(rows) for method, rows in out.items()}


@pytest.mark.parametrize("method", [Method.LNC, Method.SMOV])
def test_each_dataset_errs_as_the_closed_form_predicts(counts, method):
    observed, expected, variance = counts[method].T
    z = (observed - expected) / np.sqrt(np.maximum(variance, VARIANCE_FLOOR))
    assert np.max(np.abs(z)) <= DATASET_Z, np.round(z, 2).tolist()


@pytest.mark.parametrize("method", [Method.LNC, Method.SMOV])
def test_the_suite_errs_as_the_closed_form_predicts(counts, method):
    observed, expected, variance = counts[method].T
    z = (observed.sum() - expected.sum()) / math.sqrt(max(variance.sum(), VARIANCE_FLOOR))
    assert abs(z) <= SUITE_Z, z


def test_the_suite_spans_separable_and_overlapping_datasets(counts):
    # The bounds mean something only if some datasets err by many instances
    # and the predicted counts are not all near 0.
    observed, expected, _ = counts[Method.LNC].T
    assert observed.max() > 100 and expected.max() > 100
    assert observed.min() < 5
