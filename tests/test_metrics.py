import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import balson
from balson import (
    DegenerateStatisticError,
    mse,
    paired_t_test,
    sparsity,
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


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.stats alone adds about 39 MB of peak memory and 0.5 s to the import.
    heavy = ("scipy.stats", "scipy.optimize", "scipy.integrate")
    code = f"import sys, balson; print([m for m in {heavy!r} if m in sys.modules])"
    src = Path(balson.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"
