import math

import numpy as np
import pytest

from balson import (
    Dataset,
    DirichletParams,
    ModelSpec,
    ParameterVector,
    SimplexVector,
    UnboundedDensityError,
    basis,
    design_matrix,
    log_density,
    log_likelihood,
    log_posterior_unnorm,
    merge_signed,
    predict,
    rescale,
    split_signed,
)
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


class TestBasis:
    def test_direct_powers(self):
        np.testing.assert_allclose(basis(0.5, 3), [1.0, 0.5, 0.25])

    def test_zero_input(self):
        np.testing.assert_allclose(basis(0.0, 4), [1.0, 0.0, 0.0, 0.0])

    def test_unit_input(self):
        np.testing.assert_allclose(basis(1.0, 5), np.ones(5))

    def test_design_matrix_rows(self, rng):
        xs = rng.uniform(-2, 2, 20)
        design = design_matrix(xs, 4)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(design[i], basis(x, 4), rtol=1e-15)


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


class TestLogLikelihood:
    def test_empty_dataset(self):
        data = Dataset(np.array([]), np.array([]))
        val = log_likelihood(data, SimplexVector([0.5, 0.5]), ModelSpec(2, 1.0))
        assert val == 0.0

    def test_single_exact_point(self):
        # residual zero leaves just the standard normal at the origin
        data = Dataset(np.array([0.5]), np.array([predict([0.5, 0.5], 0.5)]))
        val = log_likelihood(data, SimplexVector([0.5, 0.5]), ModelSpec(2, 1.0))
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_matches_direct_residual_summation(self, rng):
        xs = rng.uniform(0, 1, 10)
        ys = rng.normal(size=10)
        omega = SimplexVector([0.2, 0.3, 0.5])
        spec = ModelSpec(3, 2.0)
        rss = direct_rss(2.0 * omega.values, xs, ys)
        expected = -5.0 * math.log(2 * math.pi) - 0.5 * rss
        got = log_likelihood(Dataset(xs, ys), omega, spec)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_decreases_with_rss(self):
        xs = np.linspace(0, 1, 8)
        truth = predict([0.5, 0.5], xs)
        spec = ModelSpec(2, 1.0)
        vals = []
        for shift in (0.0, 0.5, 1.0, 2.0):
            vals.append(log_likelihood(Dataset(xs, truth + shift), SimplexVector([0.5, 0.5]), spec))
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLogPosterior:
    def test_empty_data_reduces_to_prior(self):
        data = Dataset(np.array([]), np.array([]))
        prior = DirichletParams([2.0, 3.0])
        omega = SimplexVector([0.4, 0.6])
        lhs = log_posterior_unnorm(data, omega, prior, ModelSpec(2, 1.0))
        assert lhs == pytest.approx(log_density(prior, omega), rel=1e-15)

    def test_uniform_prior_reduces_to_likelihood(self, rng):
        xs = rng.uniform(0, 1, 6)
        ys = rng.normal(size=6)
        data = Dataset(xs, ys)
        omega = SimplexVector([0.4, 0.6])
        spec = ModelSpec(2, 1.0)
        lhs = log_posterior_unnorm(data, omega, DirichletParams([1.0, 1.0]), spec)
        assert lhs == pytest.approx(log_likelihood(data, omega, spec), rel=1e-15)

    def test_propagates_unbounded_density(self):
        data = Dataset(np.array([0.1]), np.array([0.2]))
        with pytest.raises(UnboundedDensityError):
            log_posterior_unnorm(
                data, SimplexVector([0.0, 1.0]), DirichletParams([0.5, 1.0]), ModelSpec(2, 1.0)
            )


class TestRescale:
    def test_unit_budget_is_identity(self):
        omega = SimplexVector([0.25, 0.75])
        np.testing.assert_array_equal(rescale(omega, 1.0).theta, omega.values)

    def test_scaling(self):
        np.testing.assert_allclose(rescale(SimplexVector([1.0, 0.0, 0.0]), 2.0).theta, [2.0, 0.0, 0.0])

    def test_budget_sum_and_ratios(self, rng):
        for _ in range(20):
            raw = rng.uniform(0.01, 1.0, 4)
            omega = SimplexVector(raw / raw.sum())
            budget = float(rng.uniform(0.1, 10))
            theta = rescale(omega, budget).theta
            assert abs(theta.sum() - budget) <= 1e-12 * budget
            ratio = theta[0] / theta[1]
            assert ratio == pytest.approx(omega.values[0] / omega.values[1], rel=1e-12)


class TestSignedSplit:
    def test_split_examples(self):
        np.testing.assert_array_equal(split_signed([1.5, -2.0]).theta, [1.5, 0.0, 0.0, 2.0])
        np.testing.assert_array_equal(split_signed([0.0, 0.0]).theta, [0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(split_signed([-1.0]).theta, [0.0, 1.0])

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
            np.testing.assert_array_equal(merge_signed(split_signed(v)), v)

    def test_split_l1_mass(self, rng):
        v = rng.normal(size=6)
        split = split_signed(v).theta
        assert split.sum() == pytest.approx(np.abs(v).sum(), rel=1e-14)


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
