"""Numerical special functions against independent oracles.

Frozen constants were computed with exact rational arithmetic
(fractions.Fraction) or mpmath at 60 decimal digits before these tests
were written; scipy serves as a live independent cross-check.
"""

import math

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st

from flocpriv.special import (
    ConstantInputError,
    binomial_sf,
    chi_square_sf,
    mean_confidence_intervals,
    pearson_r,
    regularized_beta,
    regularized_gamma_q,
    student_t_ppf,
    student_t_sf,
)
from rank_correlation import spearman_rho

# Frozen oracle values (see module docstring).
BINOM_5_10_HALF = 0.376953125  # exact: 193/512
BINOM_690_3000_013 = 5.75911393771248113108159356e-51
CHISQ_P_10_3 = 0.067889154861829023645
T_CRIT_975_DF3 = 3.1824463052837095
CI_1234 = (0.445739743239478, 4.554260256760521)


class TestRegularizedGamma:
    def test_complementarity(self, rng):
        for _ in range(200):
            a = 10 ** rng.uniform(-2, 3)
            x = 10 ** rng.uniform(-3, 3.2)
            assert regularized_gamma_q(a, x) == pytest.approx(1.0 - sp.gammainc(a, x), abs=1e-12)

    def test_against_scipy(self, rng):
        for _ in range(300):
            a = 10 ** rng.uniform(-2, 3)
            x = 10 ** rng.uniform(-3, 3.2)
            assert regularized_gamma_q(a, x) == pytest.approx(1.0 - sp.gammainc(a, x), abs=1e-12)
            assert regularized_gamma_q(a, x) == pytest.approx(sp.gammaincc(a, x), abs=1e-12)

    def test_edges(self):
        assert regularized_gamma_q(2.0, 0.0) == 1.0
        with pytest.raises(ValueError):
            regularized_gamma_q(-1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(1.0, -0.5)


class TestChiSquareSf:
    def test_frozen_case(self):
        assert chi_square_sf(10 / 3, 1) == pytest.approx(CHISQ_P_10_3, abs=1e-8)

    def test_zero_statistic(self):
        assert chi_square_sf(0.0, 5) == 1.0

    def test_against_scipy(self, rng):
        for _ in range(200):
            stat = 10 ** rng.uniform(-2, 2.5)
            df = int(rng.integers(1, 200))
            assert chi_square_sf(stat, df) == pytest.approx(st.chi2.sf(stat, df), abs=1e-10)


class TestRegularizedBeta:
    def test_against_scipy(self, rng):
        for _ in range(300):
            a = 10 ** rng.uniform(-1, 2)
            b = 10 ** rng.uniform(-1, 2)
            x = float(rng.uniform(0, 1))
            assert regularized_beta(x, a, b) == pytest.approx(sp.betainc(a, b, x), abs=1e-12)

    def test_edges(self):
        assert regularized_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_beta(1.0, 2.0, 3.0) == 1.0


class TestStudentT:
    def test_sf_against_scipy(self, rng):
        for _ in range(200):
            t = float(rng.uniform(-8, 8))
            df = int(rng.integers(1, 200))
            assert student_t_sf(t, df) == pytest.approx(st.t.sf(t, df), abs=1e-12)

    def test_ppf_frozen_critical_value(self):
        assert student_t_ppf(0.975, 3) == pytest.approx(T_CRIT_975_DF3, abs=1e-10)

    def test_ppf_roundtrip(self, rng):
        for _ in range(50):
            q = float(rng.uniform(0.51, 0.999))
            df = int(rng.integers(1, 100))
            t = student_t_ppf(q, df)
            assert 1.0 - student_t_sf(t, df) == pytest.approx(q, abs=1e-9)


class TestMeanConfidenceInterval:
    def test_frozen_case(self):
        mean, lo, hi = mean_confidence_intervals([[1, 2, 3, 4]], 0.95)[0]
        assert mean == 2.5
        assert lo == pytest.approx(CI_1234[0], abs=1e-9)
        assert hi == pytest.approx(CI_1234[1], abs=1e-9)

    def test_single_value_collapses(self):
        assert mean_confidence_intervals([[3.5]])[0] == (3.5, 3.5, 3.5)

    def test_zero_variance(self):
        mean, lo, hi = mean_confidence_intervals([[2.0, 2.0, 2.0]])[0]
        assert mean == lo == hi == 2.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            mean_confidence_intervals([[]])

    def test_many_samples_match_the_per_sample_formula(self):
        rng = np.random.default_rng(3)
        samples = [rng.random(n).tolist() for n in (2, 5, 5, 1, 3, 5, 2)]
        intervals = mean_confidence_intervals(samples, 0.9)
        assert len(intervals) == len(samples)
        for values, interval in zip(samples, intervals):
            n = len(values)
            mean = math.fsum(values) / n
            half = 0.0
            if n > 1:
                var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
                half = student_t_ppf(0.5 + 0.9 / 2.0, n - 1) * math.sqrt(var / n)
            assert interval == (mean, mean - half, mean + half)

    def test_the_t_quantile_is_computed_once_per_q_and_df(self):
        student_t_ppf.cache_clear()
        samples = [[1.0, 2.0, 4.0, 8.0, 16.0]] * 3 + [[1.0, 3.0]]
        first = mean_confidence_intervals(samples, 0.95)
        assert mean_confidence_intervals(samples, 0.95) == first
        info = student_t_ppf.cache_info()
        assert (info.misses, info.hits) == (2, 6)  # df = 4 and df = 1, each once


class TestPearson:
    def test_identical_vectors(self):
        r, p = pearson_r([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])
        assert r == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_exact_reversal(self):
        r, _ = pearson_r([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_frozen_spreadsheet_case(self):
        # Exact rational oracle: r = 3/5, two-sided p = 0.4.
        r, p = pearson_r([0.1, 0.2, 0.3, 0.4], [0.2, 0.1, 0.4, 0.3])
        assert r == pytest.approx(0.6, abs=1e-12)
        assert p == pytest.approx(0.4, abs=1e-10)

    def test_affine_invariance(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0]
        ys = [2.0, 7.0, 1.0, 8.0, 2.0]
        r1, p1 = pearson_r(xs, ys)
        r2, p2 = pearson_r([5 * x + 2 for x in xs], ys)
        assert r1 == pytest.approx(r2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_constant_input_errors(self):
        with pytest.raises(ConstantInputError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConstantInputError):
            pearson_r([1.0, 2.0, 3.0], [0.25, 0.25, 0.25])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_errors(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            pearson_r([0.1, bad, 0.3], [0.1, 0.2, 0.4])
        with pytest.raises(ValueError, match="non-finite"):
            pearson_r([0.1, 0.2, 0.4], [bad, bad, bad])

    def test_against_scipy(self, rng):
        for _ in range(100):
            xs = rng.normal(size=8)
            ys = rng.normal(size=8)
            r, p = pearson_r(xs.tolist(), ys.tolist())
            ref = st.pearsonr(xs, ys)
            assert r == pytest.approx(ref.statistic, abs=1e-12)
            assert p == pytest.approx(ref.pvalue, abs=1e-9)


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman_rho([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)

    def test_ties_against_scipy(self, rng):
        for _ in range(50):
            xs = rng.integers(0, 5, size=20).astype(float)
            ys = rng.integers(0, 5, size=20).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert spearman_rho(xs.tolist(), ys.tolist()) == pytest.approx(
                st.spearmanr(xs, ys).statistic, abs=1e-12
            )


class TestBinomialTails:
    def test_frozen_case_small(self):
        assert binomial_sf(5, 10, 0.5) == pytest.approx(BINOM_5_10_HALF, abs=1e-12)

    def test_frozen_case_large(self):
        value = binomial_sf(690, 3000, 0.13)
        assert value == pytest.approx(BINOM_690_3000_013, rel=1e-10)

    def test_edge_conventions(self):
        assert binomial_sf(-1, 10, 0.3) == 1.0
        assert binomial_sf(10, 10, 0.3) == 0.0
        assert binomial_sf(12, 10, 0.3) == 0.0
        assert binomial_sf(3, 10, 0.0) == 0.0
        assert binomial_sf(3, 10, 1.0) == 1.0

    def test_cdf_sf_complementarity(self, rng):
        # the cdf is a direct sum of pmf terms
        for _ in range(100):
            n = int(rng.integers(1, 500))
            p = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(0, n + 1))
            cdf = math.fsum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))
            assert cdf + binomial_sf(k, n, p) == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5000))
            p = float(rng.uniform(0.01, 0.99))
            k = int(rng.integers(0, n + 1))
            ref = st.binom.sf(k, n, p)
            if ref > 1e-250:
                assert binomial_sf(k, n, p) == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_monotone_in_k(self):
        values = [binomial_sf(k, 100, 0.3) for k in range(-1, 101)]
        assert all(a >= b for a, b in zip(values, values[1:]))
