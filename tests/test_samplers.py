import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import minimize

from balson import (
    BalsonError,
    BaselineConfig,
    Dataset,
    DegenerateWeightsError,
    DirichletParams,
    ModelSpec,
    RejectionBudgetError,
    SamplerConfig,
    WeightedSampleSet,
    design_matrix,
    lasso_fit,
    match_moments_per_dim,
    moments,
    normalize_log_weights,
    uniform_prior,
    weighted_moments,
)
from balson import samplers
from balson.model import ResidualForm
from balson.samplers import Problem, fit_posterior, min_rss, round_rng
from conftest import draw, overflowing_problem, quadrature_posterior_k2, weighted_se_mean

EMPTY = Dataset(np.array([]), np.array([]))


def noisy_dataset(order, n, seed, theta=None, scale=1.0, sigma=1.0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    if theta is None:
        raw = rng.uniform(0.1, 1.0, order)
        theta = scale * raw / raw.sum()
    y = design_matrix(x, order) @ np.asarray(theta) + sigma * rng.standard_normal(n)
    return Dataset(x, y)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.sample_count == 10_000
        assert cfg.max_proposals == 1000 * cfg.sample_count

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(sample_count=50)
        with pytest.raises(ValueError):
            SamplerConfig(resample_rounds=-1)
        with pytest.raises(ValueError):
            SamplerConfig(sample_count=1000, max_proposals=500)
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1)


class TestWeightedSampleSet:
    def test_invariants(self):
        samples = np.array([[0.5, 0.5], [0.2, 0.8]])
        WeightedSampleSet(samples, np.array([0.5, 0.5]), 2.0, 1.0)
        with pytest.raises(ValueError):
            WeightedSampleSet(samples, np.array([0.6, 0.6]), 2.0, 1.0)
        with pytest.raises(ValueError):
            WeightedSampleSet(samples, np.array([0.5, 0.5]), 3.5, 1.0)
        with pytest.raises(ValueError):
            WeightedSampleSet(samples, np.array([0.5, 0.5]), 2.0, 1.5)
        with pytest.raises(ValueError, match="^proposals must be at least the sample count$"):
            WeightedSampleSet(samples, np.array([0.5, 0.5]), 2.0, 1.0, proposals=1)

    @pytest.mark.parametrize(
        "samples, weights, message",
        [
            ([[np.nan, np.nan], [0.5, 0.5]], [0.5, 0.5], "simplex"),
            ([[0.5, 0.5], [0.5, 0.5]], [np.nan, np.nan], "weights"),
            ([[0.5, 0.5], [0.5, 0.5]], [np.nan, 1.0], "weights"),
        ],
        ids=["nan-samples", "nan-weights", "one-nan-weight"],
    )
    def test_nan_is_rejected(self, samples, weights, message):
        # NaN compares false both ways, so a check written as "reject when
        # below the bound" lets it through.
        with pytest.raises(ValueError, match=message):
            WeightedSampleSet(np.array(samples), np.array(weights), 1.0, 1.0)

    @pytest.mark.parametrize(
        "samples, weights",
        [([0.5, 0.5], [0.5, 0.5]), ([[1.0], [1.0]], [0.5, 0.5]), ([[0.5, 0.5]] * 2, [1.0])],
        ids=["1-d", "k-1", "weight-count"],
    )
    def test_shape_is_checked(self, samples, weights):
        message = r"^samples must be \(L, K>=2\) with one weight per row$"
        with pytest.raises(ValueError, match=message):
            WeightedSampleSet(np.array(samples), np.array(weights), 1.0, 1.0)


class TestProblem:
    def test_prior_must_match_the_order(self):
        with pytest.raises(ValueError, match="^prior dimension must equal the model order$"):
            Problem.of(noisy_dataset(3, 10, seed=0), uniform_prior(4), ModelSpec(3, 1.0))

    def test_log_likelihood_is_minus_half_the_rss_in_place(self):
        rss = np.array([0.0, 1.0, 3.0])
        assert Problem.log_likelihood(rss) is rss
        np.testing.assert_array_equal(rss, [-0.0, -0.5, -1.5])
        assert Problem.log_likelihood(4.0) == -2.0

    def test_kernels_read_the_likelihood_from_the_problem(self, monkeypatch):
        # With a flat likelihood RS accepts every proposal and IS weights
        # uniformly, so both return round 0's draws as they are.
        monkeypatch.setattr(Problem, "log_likelihood", staticmethod(lambda rss: rss * 0.0))
        data, cfg = noisy_dataset(3, 50, seed=4), SamplerConfig(sample_count=500, seed=11)
        rs = draw("rs", data, uniform_prior(3), ModelSpec(3, 1.0), cfg)
        is_ = draw("is", data, uniform_prior(3), ModelSpec(3, 1.0), cfg)
        assert (rs.acceptance_rate, rs.proposals) == (1.0, cfg.sample_count)
        assert is_.ess == pytest.approx(cfg.sample_count, rel=1e-12)
        np.testing.assert_array_equal(rs.samples, is_.samples)


class TestMinRss:
    """The RS floor: a lower bound on RSS over the scaled simplex, tight at its minimum."""

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(2, 6),
        n=st.integers(0, 30),
        budget=st.floats(0.1, 10.0),
        split=st.booleans(),
        target_scale=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dominates_simplex_residuals(self, k, n, budget, split, target_scale, seed):
        rng = np.random.default_rng(seed)
        if split:
            # [X, -X]: the Gram is singular, as in the signed reduction
            half = rng.standard_normal((n, k // 2))
            design = np.hstack([half, -half, rng.standard_normal((n, k % 2))])
        else:
            design = rng.standard_normal((n, k))
        targets = target_scale * rng.standard_normal(n)
        form = ResidualForm(design, targets)
        floor = min_rss(form, budget)
        points = np.vstack([np.eye(k), rng.dirichlet(np.full(k, 0.5), 200)])
        slack = 1e-9 * max(1.0, float(targets @ targets))
        assert np.all(floor <= form.rss(budget * points) + slack)

    @pytest.mark.parametrize("seed", range(6))
    def test_tight_on_the_simplex(self, seed):
        data = noisy_dataset(3, 40, seed=seed, theta=[0.2, 0.1, 0.7])
        design = design_matrix(data.inputs, 3)

        def rss(theta):
            resid = data.targets - design @ theta
            return float(resid @ resid)

        result = minimize(
            rss,
            np.full(3, 1.0 / 3.0),
            jac=lambda theta: -2.0 * design.T @ (data.targets - design @ theta),
            method="SLSQP",
            bounds=[(0.0, None)] * 3,
            constraints=[{"type": "eq", "fun": lambda theta: theta.sum() - 1.0}],
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        assert result.success, result.message
        floor = min_rss(ResidualForm(design, data.targets), 1.0)
        assert floor == pytest.approx(result.fun, rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_split_floor_is_the_l1_ball_minimum(self, seed):
        # Mass added to both halves of a split pair cancels, so the split
        # simplex reaches the whole L1 ball and its minimum is LASSO's.
        xs = np.linspace(-1.0, 1.0, 200)
        half = design_matrix(xs, 3)
        noise = 0.05 * np.random.default_rng(seed).standard_normal(200)
        data = Dataset(xs, half @ np.array([0.8, -1.2, 0.5]) + noise)
        theta = lasso_fit(data, ModelSpec(3, 1.5), BaselineConfig())
        resid = data.targets - half @ theta
        floor = min_rss(ResidualForm(np.hstack([half, -half]), data.targets), 1.5)
        assert floor == pytest.approx(float(resid @ resid), rel=1e-6)


class TestRejectionSampling:
    def test_empty_dataset_accepts_everything(self):
        prior = DirichletParams([2.0, 3.0, 4.0])
        cfg = SamplerConfig(sample_count=20_000, seed=1)
        out = draw("rs", EMPTY, prior, ModelSpec(3, 1.0), cfg)
        rows = out.samples.shape[0]
        assert out.acceptance_rate == 1.0
        assert out.ess == rows
        np.testing.assert_allclose(out.weights, 1.0 / rows)
        mean, variance = moments(prior)
        se = np.sqrt(variance / rows)
        assert np.all(np.abs(out.samples.mean(axis=0) - mean) <= 3.5 * se)

    def test_moments_match_quadrature(self):
        data = noisy_dataset(2, 10, seed=21, theta=[0.6, 0.4])
        prior = uniform_prior(2)
        cfg = SamplerConfig(sample_count=20_000, seed=5)
        out = draw("rs", data, prior, ModelSpec(2, 1.0), cfg)
        q_mean, _ = quadrature_posterior_k2(data, prior.alpha)
        mean, _ = weighted_moments(out)
        assert np.all(np.abs(mean - q_mean) <= 3.0 * weighted_se_mean(out))

    def test_budget_exceeded(self):
        # targets far above anything the unit budget can reach
        x = np.linspace(0, 1, 30)
        data = Dataset(x, np.full(30, 10.0))
        cfg = SamplerConfig(sample_count=100, max_proposals=100, seed=0)
        with pytest.raises(RejectionBudgetError):
            draw("rs", data, uniform_prior(2), ModelSpec(2, 1.0), cfg)

    def test_deterministic_given_seed(self):
        data = noisy_dataset(3, 12, seed=2)
        cfg = SamplerConfig(sample_count=500, seed=99)
        a = draw("rs", data, uniform_prior(3), ModelSpec(3, 1.0), cfg)
        b = draw("rs", data, uniform_prior(3), ModelSpec(3, 1.0), cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_non_finite_residual_raises(self, monkeypatch):
        # With a zero floor the pass gets as far as the residuals, which are
        # NaN at C = 1e160 (see TestImportanceSampling).
        monkeypatch.setattr(samplers, "min_rss", lambda form, budget: 0.0)
        data, spec = overflowing_problem(1e150, 1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BalsonError, match="^non-finite residual during rejection sampling$"):
                draw("rs", data, uniform_prior(5), spec, SamplerConfig(sample_count=200))

    def test_overflowing_floor_raises(self):
        # y'y overflows, so the envelope floor cannot be certified.
        data, spec = overflowing_problem(1e160, 1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(BalsonError, match="^barrier stop target is inf: "):
                draw("rs", data, uniform_prior(5), spec, SamplerConfig(sample_count=200))


class TestStopRule:
    """When a rejection pass stops: the one-sided Clopper-Pearson bound p_hi on
    the acceptance rate cannot deliver the acceptances still needed."""

    @pytest.mark.parametrize(
        "accepted, proposed, need, left, stop",
        [
            (1, 10_000, 9_999, 990_000, True),  # signed's first chunk of L
            (3, 10_000, 9_997, 990_000, True),  # large_n's first chunk of L at a 10^6 cap
            (1, 50_000, 10_000, 950_000, True),  # signed's first 50,000 proposals
            (19, 50_000, 10_000, 950_000, True),  # large_n's first 50,000 at a 10^6 cap
            (3_500, 50_000, 6_500, 950_000, False),  # a paper-like rate of 0.07
            (3_500, 50_000, 6_500, 0, True),  # the budget is spent
            (5_000, 5_000, 5_000, 9_995_000, False),  # every proposal accepted
        ],
    )
    def test_decision(self, accepted, proposed, need, left, stop):
        assert samplers._cannot_finish(accepted, proposed, need, left) is stop

    @pytest.mark.parametrize("accepted", [0, 1, 19, 3_500])
    def test_rate_bound_is_the_clopper_pearson_limit(self, accepted):
        # At the upper limit, observing at most ``accepted`` has probability delta/2.
        p_hi = samplers._rate_bound(accepted, 50_000)
        assert accepted / 50_000 < p_hi < 1.0
        delta = samplers._STOP_DELTA
        assert special.bdtr(accepted, 50_000, p_hi) == pytest.approx(delta / 2, rel=1e-6)


class TestImportanceSampling:
    def test_empty_dataset_uniform_weights(self):
        prior = DirichletParams([2.0, 3.0])
        cfg = SamplerConfig(sample_count=1000, seed=3)
        out = draw("is", EMPTY, prior, ModelSpec(2, 1.0), cfg)
        np.testing.assert_allclose(out.weights, 1e-3, rtol=1e-12)
        assert out.ess == pytest.approx(1000, rel=1e-12)
        assert out.acceptance_rate == 1.0

    def test_single_dominant_sample(self):
        # thousands of precise points: one draw fits far better than the rest.
        # The likelihood has unit noise variance, so "precise" means a signal
        # large in units of the noise: noise sigma = 0.001 at budget 1 is given
        # as targets y / sigma at budget 1 / sigma.
        data = noisy_dataset(2, 4000, seed=12, theta=[50.0, 950.0], sigma=1.0)
        cfg = SamplerConfig(sample_count=400, seed=8)
        out = draw("is", data, uniform_prior(2), ModelSpec(2, 1000.0), cfg)
        assert out.ess < 2.0

    def test_moments_match_quadrature(self):
        data = noisy_dataset(2, 10, seed=31, theta=[0.6, 0.4])
        cfg = SamplerConfig(sample_count=20_000, seed=6)
        out = draw("is", data, uniform_prior(2), ModelSpec(2, 1.0), cfg)
        q_mean, _ = quadrature_posterior_k2(data, [1.0, 1.0])
        mean, _ = weighted_moments(out)
        assert np.all(np.abs(mean - q_mean) <= 3.0 * weighted_se_mean(out))

    def test_deterministic_given_seed(self):
        data = noisy_dataset(2, 10, seed=31)
        cfg = SamplerConfig(sample_count=300, seed=77)
        a = draw("is", data, uniform_prior(2), ModelSpec(2, 1.0), cfg)
        b = draw("is", data, uniform_prior(2), ModelSpec(2, 1.0), cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_non_finite_residual_raises(self):
        # At C = 1e160 the quadratic and cross terms of the RSS overflow to
        # inf and -inf, and their sum is NaN.
        data, spec = overflowing_problem(1e150, 1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BalsonError, match="^non-finite residual during importance sampling$"):
                draw("is", data, uniform_prior(5), spec, SamplerConfig(sample_count=200))


class TestWeightedMoments:
    def test_two_corner_samples(self):
        sset = WeightedSampleSet(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]), 2.0, 1.0
        )
        mean, variance = weighted_moments(sset)
        np.testing.assert_allclose(mean, [0.5, 0.5])
        np.testing.assert_allclose(variance, [0.25, 0.25])

    def test_uniform_weights_reduce_to_sample_moments(self, rng):
        raw = rng.dirichlet([2.0, 3.0, 4.0], size=500)
        sset = WeightedSampleSet(raw, np.full(500, 1 / 500), 500.0, 1.0)
        mean, variance = weighted_moments(sset)
        np.testing.assert_allclose(mean, raw.mean(axis=0), rtol=1e-10)
        np.testing.assert_allclose(variance, raw.var(axis=0), rtol=1e-10)

    def test_unweighted_draws_match_analytic(self):
        rng = np.random.default_rng(17)
        params = DirichletParams([2.0, 3.0, 4.0])
        draws = rng.dirichlet(params.alpha, size=100_000)
        sset = WeightedSampleSet(draws, np.full(100_000, 1e-5), 100_000.0, 1.0)
        mean, variance = weighted_moments(sset)
        a_mean, a_var = moments(params)
        se_mean = np.sqrt(a_var / 100_000)
        assert np.all(np.abs(mean - a_mean) <= 3 * se_mean)
        dev = (draws - a_mean) ** 2
        se_var = np.sqrt(dev.var(axis=0) / 100_000)
        assert np.all(np.abs(variance - a_var) <= 3 * se_var)

    def test_degenerate_weights_raise(self):
        w = np.zeros(50)
        w[0] = 1.0
        sset = WeightedSampleSet(np.full((50, 2), 0.5), w, 1.0, 1.0)
        with pytest.raises(DegenerateWeightsError):
            weighted_moments(sset)

    def test_work_buffer_gives_the_same_bits(self, rng):
        raw = rng.dirichlet([2.0, 3.0, 4.0], size=500)
        weights = rng.uniform(0.0, 1.0, 500)
        sset = WeightedSampleSet(raw, weights / weights.sum(), 2.0, 1.0)
        plain = weighted_moments(sset)
        buffered = weighted_moments(sset, work=np.empty((600, 3)))
        for a, b in zip(plain, buffered):
            assert a.tobytes() == b.tobytes()
        mean = sset.weights @ raw
        assert plain[1].tobytes() == (sset.weights @ (raw - mean) ** 2).tobytes()

    def test_means_sum_to_one(self):
        data = noisy_dataset(3, 25, seed=41)
        out = draw("is", data, uniform_prior(3), ModelSpec(3, 1.0), SamplerConfig(sample_count=2000, seed=4))
        mean, _ = weighted_moments(out)
        assert abs(mean.sum() - 1.0) <= 1e-10


class TestNormalizeLogWeights:
    def test_shift_invariance(self, rng):
        logw = rng.normal(size=1000) * 10
        w0, ess0 = normalize_log_weights(logw)
        for shift in (-1e6, -123.4, 5.0, 1e6):
            w, ess = normalize_log_weights(logw + shift)
            np.testing.assert_allclose(w, w0, rtol=1e-10)
            assert ess == pytest.approx(ess0, rel=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(BalsonError):
            normalize_log_weights(np.array([0.0, np.nan]))


def fit_scheme(method, data, prior, spec, cfg):
    return fit_posterior(Problem.of(data, prior, spec), prior, cfg, method)


class TestIteratedSchemes:
    def test_empty_dataset_fixed_point(self):
        prior = DirichletParams([2.0, 3.0, 4.0])
        cfg = SamplerConfig(sample_count=20_000, resample_rounds=3, seed=15)
        for method in ("RSIRS", "ISIRS"):
            final, trace = fit_scheme(method, EMPTY, prior, ModelSpec(3, 1.0), cfg)
            assert len(trace) == 4
            for record in trace:
                rel = np.abs(record.alpha - prior.alpha) / prior.alpha
                assert np.all(rel < 0.08)
            np.testing.assert_array_equal(final.alpha, trace[-1].alpha)

    def test_single_round_composes_public_ops(self):
        data = noisy_dataset(3, 20, seed=8)
        spec = ModelSpec(3, 1.0)
        prior = uniform_prior(3)
        cfg = SamplerConfig(sample_count=2000, resample_rounds=1, seed=33)
        via_scheme, _ = fit_scheme("RSIRS", data, prior, spec, cfg)

        first = draw("rs", data, prior, spec, cfg)
        alpha0 = match_moments_per_dim(*weighted_moments(first))
        second = draw("is", data, alpha0, spec, cfg, rng=round_rng(cfg.seed, 1))
        alpha1 = match_moments_per_dim(*weighted_moments(second))
        np.testing.assert_array_equal(via_scheme.alpha, alpha1.alpha)

    def test_round_annotation_on_failure(self):
        x = np.linspace(0, 1, 30)
        data = Dataset(x, np.full(30, 10.0))
        cfg = SamplerConfig(sample_count=100, max_proposals=100, resample_rounds=1, seed=0)
        with pytest.raises(RejectionBudgetError, match="round 0"):
            fit_scheme("RSIRS", data, uniform_prior(2), ModelSpec(2, 1.0), cfg)

    def test_round_annotation_on_a_non_finite_residual(self):
        data, spec = overflowing_problem(1e150, 1e160)
        cfg = SamplerConfig(sample_count=200, resample_rounds=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BalsonError, match="^resampling round 0: non-finite residual during importance sampling$"):
                fit_scheme("ISIRS", data, uniform_prior(5), spec, cfg)

    def test_deterministic(self):
        data = noisy_dataset(3, 20, seed=8)
        cfg = SamplerConfig(sample_count=500, resample_rounds=4, seed=21)
        a, _ = fit_scheme("ISIRS", data, uniform_prior(3), ModelSpec(3, 1.0), cfg)
        b, _ = fit_scheme("ISIRS", data, uniform_prior(3), ModelSpec(3, 1.0), cfg)
        np.testing.assert_array_equal(a.alpha, b.alpha)


class TestCrossSchemeAgreement:
    @pytest.mark.parametrize("order,n", [(2, 0), (2, 10), (3, 0), (3, 10)])
    def test_rs_and_is_agree_within_mc_error(self, order, n):
        data = EMPTY if n == 0 else noisy_dataset(order, n, seed=order * 10 + n)
        spec = ModelSpec(order, 1.0)
        prior = uniform_prior(order)
        rs_means, is_means = [], []
        for rep in range(10):
            cfg = SamplerConfig(sample_count=2000, seed=1000 + rep)
            rs_means.append(weighted_moments(draw("rs", data, prior, spec, cfg))[0])
            is_means.append(weighted_moments(draw("is", data, prior, spec, cfg))[0])
        rs_means = np.array(rs_means)
        is_means = np.array(is_means)
        se = np.sqrt(rs_means.var(axis=0, ddof=1) / 10 + is_means.var(axis=0, ddof=1) / 10)
        gap = np.abs(rs_means.mean(axis=0) - is_means.mean(axis=0))
        assert np.all(gap <= 3.0 * se + 1e-12)

    def test_error_shrinks_with_sample_count(self):
        data = noisy_dataset(2, 10, seed=77, theta=[0.6, 0.4])
        spec = ModelSpec(2, 1.0)
        prior = uniform_prior(2)
        q_mean, _ = quadrature_posterior_k2(data, prior.alpha, nodes=50_000)
        errors = {}
        for count in (1000, 100_000):
            errs = []
            for rep in range(5):
                cfg = SamplerConfig(sample_count=count, seed=500 + rep)
                for kind in ("rs", "is"):
                    mean, _ = weighted_moments(draw(kind, data, prior, spec, cfg))
                    errs.append(abs(mean[0] - q_mean[0]))
            errors[count] = np.mean(errs)
        assert errors[100_000] < errors[1000]
