import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fixtures import PAIRED_T_FIXTURES, SHAPIRO_FIXTURES, WILCOXON_FIXTURES
from windowlab.stats import (
    DegenerateSampleError,
    EXACT_LIMIT,
    PairedSample,
    TestReport,
    _betainc,
    normality_report,
    paired_report,
    paired_t_test,
    shapiro_wilk,
    wilcoxon_signed_rank,
)


def paired(a, b):
    return PairedSample(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


class TestShapiroWilk:
    @pytest.mark.parametrize("name,sample,ref_w,ref_p", SHAPIRO_FIXTURES)
    def test_matches_reference(self, name, sample, ref_w, ref_p):
        report = shapiro_wilk(np.array(sample))
        assert report.statistic == pytest.approx(ref_w, abs=1e-3)
        assert report.p_value == pytest.approx(ref_p, abs=1e-3)

    def test_bimodal_sample_rejected(self):
        rng = np.random.default_rng(1)
        sample = np.concatenate([rng.normal(0, 0.01, 50), rng.normal(1, 0.01, 50)])
        assert shapiro_wilk(sample).p_value < 0.05

    def test_constant_sample_errors(self):
        with pytest.raises(DegenerateSampleError):
            shapiro_wilk(np.full(10, 3.3))

    @pytest.mark.parametrize("n", [2, 5001])
    def test_size_bounds(self, n):
        with pytest.raises(ValueError, match="sample size"):
            shapiro_wilk(np.arange(n, dtype=float))

    def test_statistic_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for n in (3, 4, 5, 6, 11, 12, 40, 300):
            rep = shapiro_wilk(rng.normal(0, 1, n))
            assert 0.0 < rep.statistic <= 1.0

    def test_near_perfect_normal_scores_high(self):
        # Normal quantiles themselves should look extremely normal.
        from statistics import NormalDist

        n = 60
        sample = np.array([NormalDist().inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
        rep = shapiro_wilk(sample)
        assert rep.statistic > 0.99
        assert rep.p_value > 0.5

    def test_tiny_sample_exact_branch(self):
        rep = shapiro_wilk(np.array([1.0, 2.0, 4.0]))
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.n_effective == 3


class TestWilcoxonExact:
    def test_all_positive_five_pairs(self):
        sample = paired([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        report = wilcoxon_signed_rank(sample, "a-greater")
        assert report.p_value == 0.03125  # exactly 1/32
        assert report.statistic == 15.0
        assert report.n_effective == 5

    def test_identical_vectors_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            wilcoxon_signed_rank(paired([1.0, 2.0], [1.0, 2.0]))

    def test_zeros_discarded_and_reported(self):
        sample = paired([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1.0, 1.0])
        report = wilcoxon_signed_rank(sample, "a-greater")
        assert report.n_effective == 2

    def test_midranks_on_ties_keep_p_in_range(self):
        sample = paired([1.0, 1.0, 2.0, 2.0, 5.0], [0.0, 0.0, 1.0, 1.0, 1.0])
        report = wilcoxon_signed_rank(sample, "two-sided")
        assert 0.0 < report.p_value <= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_two_sided_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, 12)
        b = rng.normal(0.4, 1, 12)
        p_ab = wilcoxon_signed_rank(paired(a, b), "two-sided").p_value
        p_ba = wilcoxon_signed_rank(paired(b, a), "two-sided").p_value
        assert p_ab == p_ba

    @pytest.mark.parametrize("seed", range(5))
    def test_one_two_sided_coherence(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(0.3, 1, 14)
        b = rng.normal(0, 1, 14)
        sample = paired(a, b)
        p_two = wilcoxon_signed_rank(sample, "two-sided").p_value
        p_less = wilcoxon_signed_rank(sample, "a-less").p_value
        p_greater = wilcoxon_signed_rank(sample, "a-greater").p_value
        favored = min(p_less, p_greater)
        assert min(favored, 1.0) <= p_two <= 2 * favored + 1e-12

    def test_invalid_alternative(self):
        with pytest.raises(ValueError, match="alternative"):
            wilcoxon_signed_rank(paired([1, 2], [0, 0]), "sideways")


class TestWilcoxonReference:
    @pytest.mark.parametrize("name,a,b,pvals", WILCOXON_FIXTURES)
    def test_matches_reference(self, name, a, b, pvals):
        sample = paired(a, b)
        for alternative, expected in pvals.items():
            report = wilcoxon_signed_rank(sample, alternative)
            assert report.p_value == pytest.approx(expected, abs=1e-3), (
                f"{name}/{alternative}"
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_and_approx_agree_for_mid_sizes(self, seed):
        from windowlab import stats as stats_mod

        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(15, 26))
        a = rng.normal(0.2, 1, n)
        b = rng.normal(0.0, 1, n)
        sample = paired(a, b)
        exact = wilcoxon_signed_rank(sample, "two-sided").p_value
        original = stats_mod.EXACT_LIMIT
        stats_mod.EXACT_LIMIT = 0  # force the approximation branch
        try:
            approx = wilcoxon_signed_rank(sample, "two-sided").p_value
        finally:
            stats_mod.EXACT_LIMIT = original
        assert approx == pytest.approx(exact, abs=0.02)


class TestPairedT:
    @pytest.mark.parametrize("name,a,b,pvals", PAIRED_T_FIXTURES)
    def test_matches_reference(self, name, a, b, pvals):
        sample = paired(a, b)
        for alternative, expected in pvals.items():
            report = paired_t_test(sample, alternative)
            assert report.p_value == pytest.approx(expected, abs=1e-6), (
                f"{name}/{alternative}"
            )

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            paired_t_test(paired([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]))

    def test_alternatives_sum_to_one(self):
        sample = paired([0.4, 0.9, 0.1, 0.7], [0.1, 0.2, 0.3, 0.4])
        p_less = paired_t_test(sample, "a-less").p_value
        p_greater = paired_t_test(sample, "a-greater").p_value
        assert p_less + p_greater == pytest.approx(1.0)

    def test_a_less_on_a_strongly_negative_t_does_not_underflow(self):
        # a-less used to be 1 - (1 - p) and read 0.0 where the mirrored
        # a-greater keeps p itself
        diffs = -1.0 - 0.18 * np.cos(np.arange(30))
        less = paired_t_test(paired(diffs, np.zeros(30)), "a-less")
        greater = paired_t_test(paired(np.zeros(30), diffs), "a-greater")
        assert less.statistic < -30
        assert less.p_value == greater.p_value > 0.0


class TestPairedReport:
    """``paired_report``'s choice of test, read from ``report.test``."""

    def test_quantized_zero_heavy_vectors_choose_wilcoxon(self):
        rng = np.random.default_rng(5)
        a = np.round(np.clip(rng.normal(0.02, 0.05, 100), 0, 1) * 1000) / 1000
        b = np.round(np.clip(rng.normal(0.08, 0.09, 100), 0, 1) * 1000) / 1000
        assert paired_report(a, b, "two-sided")[0].test == "wilcoxon-signed-rank"

    def test_clean_gaussians_choose_t(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.0, 1.0, 60)
        b = a + rng.normal(0.2, 1.0, 60)
        assert paired_report(a, b, "two-sided")[0].test == "paired-t"
        assert shapiro_wilk(a).p_value >= 0.05
        assert shapiro_wilk(a - b).p_value >= 0.05

    def test_one_bimodal_sample_blocks_t(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0, 1, 80)
        b = np.concatenate([rng.normal(-2, 0.05, 40), rng.normal(2, 0.05, 40)])
        assert paired_report(a, b, "two-sided")[0].test == "wilcoxon-signed-rank"

    def test_bimodal_differences_block_t(self):
        rng = np.random.default_rng(10)
        a = rng.normal(0, 1, 80)
        b = a - np.concatenate([rng.normal(-0.5, 0.05, 40), rng.normal(0.5, 0.05, 40)])
        assert min(shapiro_wilk(a).p_value, shapiro_wilk(b).p_value) >= 0.05
        assert paired_report(a, b, "two-sided")[0].test == "wilcoxon-signed-rank"

    def test_constant_sample_fails_screen_without_raising(self):
        a = np.full(20, 0.5)
        b = np.linspace(0, 1, 20)
        with pytest.raises(DegenerateSampleError):
            shapiro_wilk(a)
        assert paired_report(a, b, "two-sided")[0].test == "wilcoxon-signed-rank"


class TestNormalityReport:
    def test_only_a_size_outside_3_to_5000_becomes_the_size_note(self):
        note = "Shapiro-Wilk needs 3 to 5000 values; got 5001"
        assert normality_report(np.arange(5001.0)) == (None, note)
        for values in ([1.0, 2.0, np.inf, 4.0], [1.0, 2.0, np.inf] * 2000):
            with pytest.raises(ValueError, match="Shapiro-Wilk sample is inf at time index 3"):
                normality_report(np.array(values))

    @pytest.mark.parametrize("value", [float("nan"), np.float64(-np.inf), np.array(np.inf)])
    def test_a_single_non_finite_value_is_named(self, value):
        # a 0-d value has no row to name, yet it is not a sample of size 1
        with pytest.raises(ValueError, match=f"Shapiro-Wilk sample is {float(value)} at time index 1"):
            normality_report(value)


class TestNonFiniteSample:
    """A NaN or infinite value fails by the sample's name and 1-based position,
    before any test ranks it as a difference or reports a p-value."""

    @pytest.mark.parametrize("a, b, where", [
        ([np.nan, 1.0, 2.0], [0.0, 0.0, 0.0], "paired sample a is nan at time index 1"),
        ([0.0, 1.0, 2.0], [0.0, 0.0, -np.inf], "paired sample b is -inf at time index 3"),
    ], ids=["nan-in-a", "inf-in-b"])
    def test_paired_sample_names_the_value(self, a, b, where):
        # the Wilcoxon test used to return p = 1.0 and the t test a nan statistic
        with pytest.raises(ValueError, match=re.escape(where + "; must be finite")):
            PairedSample(np.array(a), np.array(b))

    def test_shapiro_wilk_names_the_value(self):
        # used to fail as "p-value nan outside [0, 1]" after RuntimeWarnings
        with pytest.raises(ValueError, match="Shapiro-Wilk sample is nan at time index 1"):
            shapiro_wilk(np.array([np.nan, 1.0, 2.0, 3.0]))


class TestReportShape:
    def test_p_value_bounds_enforced(self):
        with pytest.raises(ValueError):
            TestReport("x", 0.0, 1.5, "two-sided", 3)

    def test_paired_sample_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            PairedSample(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="at least 2"):
            PairedSample(np.zeros(1), np.zeros(1))


# Bytes the 20-dataset golden digests do not reach: the normal Wilcoxon branch
# at each continuity-correction case (v - mu of 0, +-0.5, and far from 0, with
# zeros and tied magnitudes), the paired t test at t of both signs, and the
# incomplete beta on both sides of its continued fraction's switch.  Expected
# values are the reprs of the results, so any change of rounding fails.
NORMAL_BRANCH_CASES = [
    (
        "v - mu = 0",
        [-2, 2, -3, 1, 1, -4, -3, 2, 3, 1, 3, -3, -2, 3, -4, 1, 1, 0, -1, 4, 4, -3, 1, -3,
         -3, 4, 1],
        175.5, 26,
        {"two-sided": 1.0, "a-less": 0.5051145045120904, "a-greater": 0.5051145045120904},
    ),
    (
        "v - mu = +0.5",
        [-1, 1, 3, -4, -2, -1, -2, 3, 2, 4, 3, -3, 3, 2, -2, -1, 0, -1, -1, 3, 2, 2, -2, -4,
         3, 1, 2, -2, -3, -1, -2, -4, -1, 1],
        281.0, 33,
        {"two-sided": 1.0, "a-less": 0.5071969650875351, "a-greater": 0.5},
    ),
    (
        "v - mu = -0.5",
        [4, 2, -3, -4, 4, 3, 1, -2, 3, -4, 1, -1, 3, 2, -2, 3, 2, -2, -2, -1, 0, -2, 2, 0,
         -3, 2, -4, 4, 3, -4, 3, -2, 1, -2, -2, -4, 1],
        314.5, 35,
        {"two-sided": 1.0, "a-less": 0.5, "a-greater": 0.5065970543072899},
    ),
    (
        "v - mu = +161.5",
        [-1, -1, 3, 1, 2, 2, 3, -1, 1, -1, 1, 4, 2, -1, 2, -1, 3, 4, 4, 2, 4, 1, -1, 2, 1,
         2, 4, 0, 4, -1],
        379.0, 29,
        {
            "two-sided": 0.0004171452887625425,
            "a-less": 0.9998080502537873,
            "a-greater": 0.00020857264438127124,
        },
    ),
    (
        "v - mu = -193.5",
        [-1, -4, -4, -2, -1, -4, -1, 1, -4, -4, 1, -3, 1, -2, 0, -4, -1, 1, -2, -1, -3, -4,
         -4, -2, -1, -4, -3, -1, -2, -3],
        24.0, 29,
        {
            "two-sided": 2.4522920948269353e-05,
            "a-less": 1.2261460474134676e-05,
            "a-greater": 0.9999888740437356,
        },
    ),
]

PAIRED_T_CASES = [
    (
        [0.3, 0.82, 0.67, 0.66, 1.11, -0.3, -0.01, -0.36, 0.25, 0.8, 0.29, 0.55],
        [-0.96, 0.07, -0.45, 0.89, 0.44, 0.47, -0.03, 0.31, 0.33, -0.17, -0.25, -0.06],
        1.7769863153912433,
        {
            "two-sided": 0.10319694980796278,
            "a-less": 0.9484015250960186,
            "a-greater": 0.05159847490398139,
        },
    ),
    (
        [-0.6, -0.6, -0.44, -0.66, 0.08, -1.1, 0.11, -0.61, -0.57, -0.98, -0.37, -0.42],
        [0.1, -0.27, 0.05, 0.91, 0.2, -0.29, 0.48, -0.06, 0.3, 0.31, -0.2, -0.97],
        -3.4877393244139068,
        {
            "two-sided": 0.005078741770066676,
            "a-less": 0.002539370885033338,
            "a-greater": 0.9974606291149667,
        },
    ),
]

# (a, b, x, I_x(a, b)); the continued fraction runs on x itself below
# (a + 1) / (a + b + 2) and on 1 - x with a and b swapped above it.
BETAINC_CASES = [
    (2.0, 3.0, 0.1, 0.052300000000000006),
    (2.0, 3.0, 0.9, 0.9963),
    (5.5, 0.5, 0.3, 0.0003627229394850507),
    (5.5, 0.5, 0.95, 0.4627244947100456),
    (49.5, 0.5, 0.5, 1.4071987346331853e-16),
    (49.5, 0.5, 0.999, 0.7535759596102161),
]


class TestPinnedBytes:
    @pytest.mark.parametrize(
        "name,diffs,v,n,pvals", NORMAL_BRANCH_CASES, ids=[c[0] for c in NORMAL_BRANCH_CASES]
    )
    def test_wilcoxon_normal_branch(self, name, diffs, v, n, pvals):
        assert n > EXACT_LIMIT
        sample = paired(diffs, np.zeros(len(diffs)))
        for alternative, p in pvals.items():
            report = wilcoxon_signed_rank(sample, alternative)
            got = (repr(report.statistic), repr(report.p_value), report.n_effective)
            assert got == (repr(v), repr(p), n), f"{name}/{alternative}"

    @pytest.mark.parametrize("a,b,t,pvals", PAIRED_T_CASES)
    def test_paired_t(self, a, b, t, pvals):
        for alternative, p in pvals.items():
            report = paired_t_test(paired(a, b), alternative)
            got = (repr(report.statistic), repr(report.p_value))
            assert got == (repr(t), repr(p)), alternative

    @pytest.mark.parametrize("a,b,x,expected", BETAINC_CASES)
    def test_betainc(self, a, b, x, expected):
        assert repr(_betainc(a, b, x)) == repr(expected)


@given(
    st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=30),
    st.randoms(),
)
@settings(max_examples=30, deadline=None)
def test_wilcoxon_symmetry_property(values, rnd):
    a = np.asarray(values)
    b = np.asarray([v + (rnd.random() - 0.5) for v in values])
    if np.all(a - b == 0):
        return
    p_ab = wilcoxon_signed_rank(paired(a, b), "two-sided").p_value
    p_ba = wilcoxon_signed_rank(paired(b, a), "two-sided").p_value
    assert p_ab == p_ba
