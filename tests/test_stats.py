import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fixtures import PAIRED_T_FIXTURES, SHAPIRO_FIXTURES, WILCOXON_FIXTURES
from windowlab.stats import (
    DegenerateSampleError,
    PairedSample,
    TestReport,
    choose_test,
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


class TestChooseTest:
    def test_quantized_zero_heavy_vectors_choose_wilcoxon(self):
        rng = np.random.default_rng(5)
        a = np.round(np.clip(rng.normal(0.02, 0.05, 100), 0, 1) * 1000) / 1000
        b = np.round(np.clip(rng.normal(0.08, 0.09, 100), 0, 1) * 1000) / 1000
        selection = choose_test(a, b)
        assert not selection.parametric

    def test_clean_gaussians_choose_t(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.0, 1.0, 60)
        b = a + rng.normal(0.2, 1.0, 60)
        selection = choose_test(a, b)
        assert selection.parametric
        assert selection.shapiro_a.p_value >= 0.05
        assert selection.shapiro_diff.p_value >= 0.05

    def test_one_bimodal_sample_blocks_t(self):
        rng = np.random.default_rng(7)
        a = rng.normal(0, 1, 80)
        b = np.concatenate([rng.normal(-2, 0.05, 40), rng.normal(2, 0.05, 40)])
        assert not choose_test(a, b).parametric

    def test_constant_sample_fails_screen_without_raising(self):
        a = np.full(20, 0.5)
        b = np.linspace(0, 1, 20)
        selection = choose_test(a, b)
        assert selection.shapiro_a is None
        assert not selection.parametric


class TestReportShape:
    def test_p_value_bounds_enforced(self):
        with pytest.raises(ValueError):
            TestReport("x", 0.0, 1.5, "two-sided", 3)

    def test_paired_sample_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            PairedSample(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="at least 2"):
            PairedSample(np.zeros(1), np.zeros(1))


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
