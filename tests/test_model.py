import tracemalloc

import numpy as np
import pytest

from balson import (
    BalsonConfig,
    Dataset,
    ModelSpec,
    ParameterVector,
    SamplerConfig,
    design_matrix,
    merge_signed,
    predict,
    solve,
    uniform_prior,
)
from balson.exceptions import BalsonError
from balson.model import ResidualForm
from conftest import direct_rss

PAPER_THETA = [0.0013, 0.0380, 0.0102, 0.9082, 0.0423]


class TestTypes:
    def test_dataset_validation(self):
        Dataset(np.array([]), np.array([]))  # empty is legal
        with pytest.raises(ValueError):
            Dataset(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([np.nan]), np.array([1.0]))

    def test_model_spec_validation(self):
        ModelSpec(1, 0.5)
        with pytest.raises(ValueError):
            ModelSpec(0, 1.0)
        with pytest.raises(ValueError):
            ModelSpec(3, 0.0)

    def test_parameter_vector_validation(self):
        with pytest.raises(ValueError):
            ParameterVector(np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="^theta must be 1-D$"):
            ParameterVector(np.ones((2, 3)))


def column_loop(xs, order):
    """The monomial design built column by column, each column the previous times x."""
    xs = np.asarray(xs, dtype=np.float64)
    cols = np.empty((xs.shape[0], order), dtype=np.float64)
    if xs.shape[0] == 0:
        return cols
    cols[:, 0] = 1.0
    for i in range(1, order):
        cols[:, i] = cols[:, i - 1] * xs
    return cols


class TestBasis:
    """Rows of the monomial design [1, x, ..., x^(K-1)]."""

    def test_direct_powers(self):
        np.testing.assert_allclose(design_matrix([0.5], 3)[0], [1.0, 0.5, 0.25])

    def test_zero_input(self):
        np.testing.assert_allclose(design_matrix([0.0], 4)[0], [1.0, 0.0, 0.0, 0.0])

    def test_unit_input(self):
        np.testing.assert_allclose(design_matrix([1.0], 5)[0], np.ones(5))

    def test_design_matrix_rows(self, rng):
        xs = rng.uniform(-2, 2, 20)
        design = design_matrix(xs, 4)
        assert design.shape == (20, 4) and design.dtype == np.float64
        for i, x in enumerate(xs):
            np.testing.assert_allclose(design[i], [1.0, x, x**2, x**3], rtol=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 7, 100, 1000, 100_000])
    @pytest.mark.parametrize("order", [1, 2, 5, 10, 20])
    def test_same_bits_as_the_column_loop(self, n, order):
        # The bench datasets and every fit's statistics rest on these bits.
        rng = np.random.default_rng([n, order])
        for xs in (rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n), rng.normal(0.0, 10.0, n)):
            design = design_matrix(xs, order)
            assert design.shape == (n, order) and design.flags.c_contiguous
            assert design.tobytes() == column_loop(xs, order).tobytes()


class TestPredict:
    def test_identity_coefficient(self):
        assert predict([0.0, 1.0, 0.0, 0.0, 0.0], 0.3) == pytest.approx(0.3)

    def test_constant(self):
        assert predict([1.0, 0.0, 0.0], 1.7) == pytest.approx(1.0)

    def test_paper_theta_at_zero(self):
        assert predict(PAPER_THETA, 0.0) == pytest.approx(0.0013)

    def test_linear_in_theta(self, rng):
        x = 0.73
        a = rng.uniform(-1, 1, 4)
        b = rng.uniform(-1, 1, 4)
        lhs = predict(2.0 * a + 3.0 * b, x)
        rhs = 2.0 * predict(a, x) + 3.0 * predict(b, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_vectorized_input(self):
        xs = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(predict([1.0, 1.0], xs), [1.0, 1.5, 2.0])

    def test_scalar_is_the_array_path_unwrapped(self, rng):
        theta = rng.uniform(-1, 1, 5)
        xs = rng.uniform(-2, 2, 10)
        values = [predict(theta, x) for x in xs]
        assert all(type(v) is float for v in values)
        assert values == [predict(theta, np.array([x]))[0] for x in xs]
        np.testing.assert_allclose(values, predict(theta, xs), rtol=1e-12)


class TestRescale:
    """A solve's coefficients are its simplex point scaled by the budget: theta = C omega."""

    @staticmethod
    def fit(budget):
        xs = np.linspace(0.0, 1.0, 100)
        data = Dataset(xs, predict(PAPER_THETA, xs) + np.random.default_rng(0).standard_normal(100))
        cfg = BalsonConfig("IS", uniform_prior(5), ModelSpec(5, budget), SamplerConfig(sample_count=500))
        report = solve(data, cfg)
        return report.theta_star.theta, report.omega_star.values

    def test_unit_budget_is_identity(self):
        theta, omega = self.fit(1.0)
        assert theta.tobytes() == omega.tobytes()

    def test_scaling(self):
        theta, omega = self.fit(2.0)
        assert theta.tobytes() == (2.0 * omega).tobytes()

    def test_budget_sum_and_ratios(self, rng):
        budget = float(rng.uniform(0.1, 10))
        theta, omega = self.fit(budget)
        assert theta.tobytes() == (budget * omega).tobytes()
        assert abs(theta.sum() - budget) <= 1e-12 * budget


class TestSignedSplit:
    def test_merge_examples(self):
        np.testing.assert_array_equal(merge_signed(np.array([1.5, 0.0, 0.0, 2.0])), [1.5, -2.0])
        np.testing.assert_array_equal(merge_signed(np.array([0.3, 0.3])), [0.0])

    def test_merge_validation(self):
        with pytest.raises(ValueError):
            merge_signed(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            merge_signed(np.array([1.0, -0.1]))

    def test_round_trip_identity(self, rng):
        for _ in range(1000):
            v = rng.normal(scale=3.0, size=int(rng.integers(1, 8)))
            split = np.concatenate([np.maximum(v, 0.0), np.maximum(-v, 0.0)])
            np.testing.assert_array_equal(merge_signed(split), v)


class TestResidualForm:
    def test_matches_direct_residuals(self, rng):
        xs = rng.uniform(0, 1, 30)
        ys = rng.normal(size=30)
        design = design_matrix(xs, 4)
        form = ResidualForm(design, ys)
        thetas = rng.uniform(0, 1, (50, 4))
        direct = np.array([direct_rss(t, xs, ys) for t in thetas])
        np.testing.assert_allclose(form.rss(thetas), direct, rtol=1e-9)

    def test_empty_dataset(self):
        form = ResidualForm(np.empty((0, 3)), np.array([]))
        assert form.rss(np.array([0.2, 0.3, 0.5])) == 0.0

    @pytest.mark.parametrize("split", [False, True])
    def test_buffers_give_the_unbuffered_bits(self, rng, split):
        xs = rng.uniform(-1, 1, 200)
        ys = rng.normal(size=200)
        half = design_matrix(xs, 5)
        # The split [X, -X] has a singular Gram, as in the signed reduction.
        form = ResidualForm(np.hstack([half, -half]) if split else half, ys)
        k = form.gram.shape[0]
        thetas = rng.dirichlet(np.ones(k), 300)
        # Views of longer buffers, as a sampling workspace passes them.
        out, product, quad = np.empty(400), np.empty((400, k)), np.empty(400)
        buffered = form.rss(thetas, out=out[:300], work=(product[:300], quad[:300]))
        assert np.shares_memory(buffered, out)
        plain = form.rss(thetas)
        assert buffered.tobytes() == plain.tobytes()
        # The expression before buffers existed.
        quad_ref = np.einsum("ij,ij->i", thetas @ form.gram, thetas)
        reference = np.maximum(form.yty - 2.0 * (thetas @ form.xty) + quad_ref, 0.0)
        assert plain.tobytes() == reference.tobytes()

    def test_split_statistics_match_the_split_design(self, rng):
        # The signed form comes from the K-column Gram, not from [X, -X]; the
        # two agree up to the rounding of the larger product.
        xs = rng.uniform(-1, 1, 200)
        ys = rng.normal(size=200)
        half = design_matrix(xs, 5)
        split = ResidualForm(half, ys, True)
        wide = ResidualForm(np.hstack([half, -half]), ys)
        np.testing.assert_allclose(split.gram, wide.gram, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(split.xty, wide.xty, rtol=1e-12, atol=0.0)
        assert split.yty == wide.yty


class TestPolynomialForm:
    """The power-sum form of [1, x, ..., x^(K-1)] against the explicit design's."""

    @staticmethod
    def bound(xs, ys, order, split):
        """Scale-aware bound on |polynomial - explicit| for the Gram and X'y.

        Each entry of either way is a sum of N terms x^m or x^m y, m <= 2K - 2,
        each term rounded by at most m products, so it lies within
        (m + N) eps times the sum of the terms' magnitudes of the exact sum.
        The two ways then differ by at most twice that.
        """
        eps = np.finfo(float).eps
        n = xs.shape[0]
        rows = np.abs(design_matrix(xs, order))
        gram = 2.0 * (2 * order + n) * eps * (rows.T @ rows)
        xty = 2.0 * (order + n) * eps * (rows.T @ np.abs(ys))
        if split:
            gram = np.block([[gram, gram], [gram, gram]])
            xty = np.concatenate([xty, xty])
        return gram, xty

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("low", [0.0, -1.0])
    @pytest.mark.parametrize("n", [0, 1, 100, 10_000])
    @pytest.mark.parametrize("order", [2, 5, 10, 20])
    def test_matches_the_explicit_design(self, order, n, low, split):
        rng = np.random.default_rng([order, n, int(-low)])
        xs = rng.uniform(low, 1.0, n)
        ys = rng.normal(size=n)
        poly = ResidualForm(xs, ys, split, order=order)
        explicit = ResidualForm(design_matrix(xs, order), ys, split)
        gram_bound, xty_bound = self.bound(xs, ys, order, split)
        width = 2 * order if split else order
        assert poly.gram.shape == (width, width) and poly.xty.shape == (width,)
        assert np.all(np.abs(poly.gram - explicit.gram) <= gram_bound)
        assert np.all(np.abs(poly.xty - explicit.xty) <= xty_bound)
        assert poly.yty == explicit.yty

    def test_allocates_no_design(self):
        # Two length-N buffers; an N x K design would take K times one.
        n, order = 100_000, 20
        xs = np.linspace(-1.0, 1.0, n)
        ys = np.cos(xs)
        tracemalloc.start()
        try:
            ResidualForm(xs, ys, True, order=order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * xs.itemsize

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("big", [[1e100], [1e100, -1e100]])
    def test_overflow_raises(self, split, big):
        xs = np.linspace(0.0, 1.0, 20)
        xs[3 : 3 + len(big)] = big
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BalsonError, match="non-finite Gram or X'y"):
                ResidualForm(xs, np.ones(20), split, order=5)
