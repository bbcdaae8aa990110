import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balson import (
    DirichletParams,
    ModeUndefinedError,
    MomentMatchingError,
    SimplexVector,
    match_moments_per_dim,
    mode,
    moments,
    sample_batch,
)
from conftest import simplex_grid_argmax_face


class TestTypes:
    def test_simplex_invariants(self):
        SimplexVector(np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            SimplexVector(np.array([0.5]))
        with pytest.raises(ValueError):
            SimplexVector(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            SimplexVector(np.array([0.3, 0.6]))
        with pytest.raises(ValueError, match="^simplex point must be finite$"):
            SimplexVector([0.5, np.nan])

    def test_simplex_sum_tolerance(self):
        SimplexVector(np.array([0.5, 0.5 + 5e-13]))
        with pytest.raises(ValueError):
            SimplexVector(np.array([0.5, 0.5 + 5e-12]))

    def test_params_invariants(self):
        DirichletParams(np.array([0.1, 2.0]))
        with pytest.raises(ValueError):
            DirichletParams(np.array([1.0]))
        with pytest.raises(ValueError):
            DirichletParams(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            DirichletParams(np.array([1.0, np.inf]))


class TestSample:
    def test_single_draw_is_simplex_point(self, rng):
        (row,) = sample_batch(DirichletParams([2.0, 3.0, 4.0]), rng, 1)
        SimplexVector(row)  # raises unless the row is a simplex point

    @pytest.mark.parametrize("alpha", [[1.0, 1.0], [0.05, 0.2, 3.0], [50.0, 0.5], [2.0, 3.0, 4.0]])
    def test_batches_satisfy_invariants(self, alpha, rng):
        draws = sample_batch(DirichletParams(alpha), rng, 10_000)
        assert np.all(draws >= 0.0)
        assert np.max(np.abs(draws.sum(axis=1) - 1.0)) <= 1e-12

    def test_rows_whose_gammas_all_underflow_are_redrawn(self):
        alpha = np.full(5, 1e-3)
        first = np.random.default_rng(0).standard_gamma(alpha, size=(1000, 5))
        dead = first.sum(axis=1) == 0.0
        assert dead.sum() == 21
        draws = sample_batch(DirichletParams(alpha), np.random.default_rng(0), 1000)
        assert np.all(draws >= 0.0)
        assert np.max(np.abs(draws.sum(axis=1) - 1.0)) <= 1e-12
        # Every other row keeps its first draw.
        kept = first[~dead]
        np.testing.assert_allclose(draws[~dead], kept / kept.sum(axis=1, keepdims=True), rtol=1e-14)

    def test_gammas_that_always_underflow_raise(self):
        with pytest.raises(MomentMatchingError, match="underflowed"):
            sample_batch(DirichletParams(np.full(5, 1e-6)), np.random.default_rng(0), 1000)

    def test_symmetric_mean(self):
        rng = np.random.default_rng(7)
        draws = sample_batch(DirichletParams([1.0, 1.0]), rng, 100_000)
        assert abs(draws[:, 0].mean() - 0.5) < 0.005

    def test_mean_and_variance_match_analytic(self):
        rng = np.random.default_rng(11)
        params = DirichletParams([2.0, 3.0, 4.0])
        draws = sample_batch(params, rng, 100_000)
        mean, variance = moments(params)
        n = draws.shape[0]
        se_mean = np.sqrt(variance / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3 * se_mean)
        dev = (draws - mean) ** 2
        se_var = np.sqrt(dev.var(axis=0) / n)
        assert np.all(np.abs(draws.var(axis=0) - variance) <= 3 * se_var)


def broadcast_gamma_draw(rng, count, k):
    """The flat draw as a Dirichlet through unit-shape gammas, normalised by row sums.

    The sums are taken as sample_batch takes them, as a product with ones.
    """
    draws = rng.standard_gamma(np.ones(k), size=(count, k))
    return draws / (draws @ np.ones(k))[:, None]


class TestFlatPath:
    """Dir(1, ..., 1) draws unit exponentials, which must equal the unit-shape gamma draw."""

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(2, 20), count=st.integers(1, 2000), seed=st.integers(0, 2**63 - 1))
    def test_same_bits_and_stream_as_the_gamma_draw(self, k, count, seed):
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = sample_batch(DirichletParams(np.ones(k)), fast, count)
        assert draws.tobytes() == broadcast_gamma_draw(reference, count, k).tobytes()
        assert fast.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("alpha", [[1.0] * 6, [0.3, 2.0, 7.5], [1.0, 1.0, 2.0]])
    def test_out_gives_the_fresh_array_bits(self, alpha):
        params = DirichletParams(alpha)
        fresh = sample_batch(params, np.random.default_rng(4), 700)
        # A view of a longer buffer, as a sampling workspace passes it.
        buffer = np.full((900, len(alpha)), np.nan)
        drawn = sample_batch(params, np.random.default_rng(4), 700, out=buffer[:700])
        assert np.shares_memory(drawn, buffer)
        assert drawn.tobytes() == fresh.tobytes()
        assert np.isnan(buffer[700:]).all()


class TestMoments:
    def test_symmetric_pair(self):
        mean, variance = moments(DirichletParams([2.0, 2.0]))
        np.testing.assert_allclose(mean, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(variance, [0.05, 0.05], atol=1e-15)

    def test_uniform_three(self):
        mean, variance = moments(DirichletParams([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(mean, np.full(3, 1 / 3), atol=1e-15)
        np.testing.assert_allclose(variance, np.full(3, 1 / 18), atol=1e-15)

    def test_asymmetric(self):
        mean, variance = moments(DirichletParams([2.0, 3.0, 4.0]))
        np.testing.assert_allclose(mean, [2 / 9, 3 / 9, 4 / 9], atol=1e-15)
        assert variance[0] == pytest.approx(14 / 810, abs=1e-15)


class TestMatchMoments:
    def test_exact_round_trip_simple(self):
        recovered = match_moments_per_dim([0.5, 0.5], [0.05, 0.05])
        np.testing.assert_allclose(recovered.alpha, [2.0, 2.0], rtol=1e-12)

    def test_exact_round_trip_asymmetric(self):
        mean, variance = moments(DirichletParams([2.0, 3.0, 4.0]))
        recovered = match_moments_per_dim(mean, variance)
        np.testing.assert_allclose(recovered.alpha, [2.0, 3.0, 4.0], rtol=1e-9)

    def test_round_trip_random_concentrations(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 7))
            alpha = rng.uniform(0.2, 20.0, k)
            params = DirichletParams(alpha)
            recovered = match_moments_per_dim(*moments(params))
            np.testing.assert_allclose(recovered.alpha, alpha, rtol=1e-9)

    def test_empirical_recovery_within_five_percent(self):
        rng = np.random.default_rng(5)
        params = DirichletParams([5.0, 1.0, 2.0])
        draws = sample_batch(params, rng, 100_000)
        recovered = match_moments_per_dim(draws.mean(axis=0), draws.var(axis=0))
        rel = np.abs(recovered.alpha - params.alpha) / params.alpha
        assert np.all(rel < 0.05)

    def test_degenerate_moments_raise(self):
        # variance >= m(1-m) makes every per-dimension estimate non-positive
        with pytest.raises(MomentMatchingError):
            match_moments_per_dim([0.5, 0.5], [0.3, 0.3])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            match_moments_per_dim([0.5, 0.5], [0.05, -0.01])
        with pytest.raises(ValueError):
            match_moments_per_dim([0.7, 0.7], [0.01, 0.01])  # means sum to 1.4
        message = "^mean and variance must be 1-D vectors of equal length >= 2$"
        with pytest.raises(ValueError, match=message):
            match_moments_per_dim([0.2, 0.3, 0.5], [0.01, 0.01])

    def test_collapsed_dimension_is_skipped(self):
        # one dimension pinned at zero with zero variance must not poison the rest
        mean, variance = moments(DirichletParams([2.0, 3.0, 4.0]))
        mean = np.append(mean, 0.0)
        variance = np.append(variance, 0.0)
        recovered = match_moments_per_dim(mean, variance)
        np.testing.assert_allclose(recovered.alpha[:3], [2.0, 3.0, 4.0], rtol=1e-6)
        assert recovered.alpha[3] == pytest.approx(1e-6, abs=1e-12)

    def test_per_dim_keeps_anisotropy(self):
        # dimensions with inflated variance drop below one instead of
        # dragging the whole concentration down
        mean = np.array([0.05, 0.45, 0.5])
        variance = np.array([0.045, 0.01, 0.01])
        aniso = match_moments_per_dim(mean, variance)
        assert aniso.alpha[0] < 1.0 < aniso.alpha[1]


class TestMode:
    def test_symmetric_interior(self):
        np.testing.assert_allclose(mode(DirichletParams([2.0, 2.0])).values, [0.5, 0.5])

    def test_boundary_exclusion_at_exactly_one(self):
        point = mode(DirichletParams([3.0, 1.5, 1.0]))
        np.testing.assert_allclose(point.values, [0.8, 0.2, 0.0], atol=1e-15)

    def test_sparse_component(self):
        point = mode(DirichletParams([0.5, 2.0, 3.0]))
        np.testing.assert_allclose(point.values, [0.0, 1 / 3, 2 / 3], atol=1e-15)
        oracle = simplex_grid_argmax_face([0.5, 2.0, 3.0])
        assert np.max(np.abs(point.values - oracle)) <= 1e-3

    def test_undefined_when_nothing_above_one(self):
        with pytest.raises(ModeUndefinedError):
            mode(DirichletParams([1.0, 1.0]))
        with pytest.raises(ModeUndefinedError):
            mode(DirichletParams([0.5, 0.9, 0.3]))

    def test_zero_pattern_and_normalization(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            alpha = rng.uniform(0.1, 5.0, k)
            if not (alpha > 1.0).any():
                alpha[int(rng.integers(k))] = rng.uniform(1.5, 4.0)
            point = mode(DirichletParams(alpha)).values
            assert ((point == 0.0) == (alpha <= 1.0)).all()
            assert abs(point[point > 0].sum() - 1.0) <= 1e-12

    def test_interior_mode_matches_grid_argmax(self, rng):
        for _ in range(20):
            alpha = rng.uniform(1.0 + 1e-6, 8.0, 3)
            point = mode(DirichletParams(alpha)).values
            oracle = simplex_grid_argmax_face(alpha)
            assert np.max(np.abs(point - oracle)) <= 1.5e-3
        for _ in range(10):
            alpha = rng.uniform(1.0 + 1e-6, 8.0, 2)
            point = mode(DirichletParams(alpha)).values
            t = np.arange(0.0, 1.0 + 5e-4, 1e-3)
            with np.errstate(divide="ignore"):
                vals = (alpha[0] - 1) * np.log(t) + (alpha[1] - 1) * np.log(1 - t)
            best = t[np.argmax(vals)]
            assert abs(point[0] - best) <= 1.5e-3
