import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid

from balson import (
    DegenerateStatisticError,
    mse,
    paired_t_test,
    regularized_incomplete_beta,
    sparsity,
    student_t_sf,
)

PAPER_THETA = [0.0013, 0.0380, 0.0102, 0.9082, 0.0423]


def t2_sf_closed_form(t):
    return 0.5 - t / (2.0 * math.sqrt(t * t + 2.0))


class TestMse:
    def test_identical_inputs(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_simple_value(self):
        assert mse([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)

    def test_matches_two_pass_oracle(self, rng):
        a = rng.normal(size=1000)
        b = rng.normal(size=1000)
        expected = sum((x - y) ** 2 for x, y in zip(a, b)) / 1000.0
        assert mse(a, b) == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance(self, rng):
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        assert mse(a + 3.7, b + 3.7) == pytest.approx(mse(a, b), rel=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse([], [])


class TestSparsity:
    def test_one_hot_is_one(self):
        for k in (2, 3, 7):
            v = np.zeros(k)
            v[k // 2] = 0.4
            assert sparsity(v) == pytest.approx(1.0, abs=1e-12)

    def test_all_equal_is_zero(self):
        for k in (2, 5, 9):
            assert sparsity(np.full(k, 0.3)) == pytest.approx(0.0, abs=1e-12)

    def test_paper_theta(self):
        assert sparsity(PAPER_THETA) == pytest.approx(0.9200, abs=5e-5)

    def test_scale_invariance(self, rng):
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(2, 8)))
            if not np.any(v):
                continue
            c = float(rng.uniform(1e-3, 1e3))
            assert abs(sparsity(c * v) - sparsity(v)) <= 1e-12

    def test_range(self, rng):
        for _ in range(200):
            v = rng.normal(size=int(rng.integers(2, 10)))
            if not np.any(v):
                continue
            assert -1e-12 <= sparsity(v) <= 1.0 + 1e-12

    def test_sign_insensitive(self, rng):
        v = rng.normal(size=6)
        assert sparsity(v) == pytest.approx(sparsity(np.abs(v)), rel=1e-12)

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateStatisticError):
            sparsity(np.zeros(4))


class TestStudentTSf:
    def test_symmetry_point(self):
        for df in (1, 2, 5, 100):
            assert student_t_sf(0.0, df) == 0.5

    def test_cauchy_quarter(self):
        assert student_t_sf(1.0, 1) == pytest.approx(0.25, abs=1e-12)

    def test_df1_closed_form_sweep(self):
        for t in np.linspace(-50, 50, 401):
            expected = 0.5 - math.atan(t) / math.pi
            assert abs(student_t_sf(float(t), 1) - expected) <= 1e-10

    def test_df2_closed_form_sweep(self):
        for t in np.linspace(-50, 50, 401):
            assert abs(student_t_sf(float(t), 2) - t2_sf_closed_form(float(t))) <= 1e-10

    def test_against_density_quadrature(self):
        # integrate the t10 density from 2 upward; the tail beyond 200 is < 1e-20
        df = 10
        n = 1_000_000
        grid = np.linspace(2.0, 200.0, n)
        log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
        pdf = np.exp(log_norm - ((df + 1) / 2) * np.log1p(grid**2 / df))
        integral = trapezoid(pdf, grid)
        assert abs(student_t_sf(2.0, df) - integral) <= 1e-8

    def test_against_scipy_sweep(self):
        for df in (1, 2, 3, 10, 30, 100, 1000):
            for t in np.linspace(-50, 50, 101):
                assert abs(student_t_sf(float(t), df) - stats.t.sf(t, df)) <= 1e-10

    def test_incomplete_beta_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)


class TestPairedTTest:
    def test_df2_worked_example(self):
        t, p = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert t == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
        assert p == pytest.approx(2.0 * t2_sf_closed_form(2.0 * math.sqrt(3.0)), abs=1e-12)
        assert p == pytest.approx(0.0742, abs=5e-4)

    def test_location_shift_dominance(self):
        b = np.array([1.0, 2.0, 3.0])
        a = b + np.array([1.0, 1.001, 0.999])
        t, p = paired_t_test(a, b)
        assert t > 100
        assert p < 0.05

    def test_antisymmetry(self, rng):
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        t_ab, p_ab = paired_t_test(a, b)
        t_ba, p_ba = paired_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba, rel=1e-12)
        assert p_ab == pytest.approx(p_ba, rel=1e-12)

    def test_matches_scipy(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        t, p = paired_t_test(a, b)
        ref = stats.ttest_rel(a, b)
        assert t == pytest.approx(ref.statistic, rel=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_degenerate_differences(self):
        with pytest.raises(DegenerateStatisticError):
            paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
