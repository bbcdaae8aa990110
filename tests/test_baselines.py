"""Baseline solvers against independent optimisers.

The oracle is scipy's SLSQP on the same constrained least-squares problem,
with the residual sum of squares computed directly from the design. The
QP core runs at its default certificate tolerance throughout: its
coefficients match the oracle's to 1e-6.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from balson import (
    BalsonError,
    BaselineConfig,
    Dataset,
    GibbsParams,
    IpParams,
    ModelSpec,
    bayesian_lasso_fit,
    design_matrix,
    ip_fit,
    ip_solve,
    lasso_coordinate_descent,
    lasso_fit,
    predict,
)
from balson import baselines
from balson.baselines import _inverse_gaussian
from balson.bench import ExperimentConfig, config_from_mapping, generate_dataset, method_seed
from conftest import OVERFLOWING_TARGETS, overflowing_problem


def dataset(theta, n, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    xs = np.linspace(-1.0, 1.0, n)
    ys = design_matrix(xs, len(theta)) @ np.asarray(theta) + noise * rng.standard_normal(n)
    return Dataset(xs, ys)


def slsqp_split(data, order, budget):
    """min RSS over theta = u - v with u, v >= 0 and sum(u + v) <= budget."""
    design = design_matrix(data.inputs, order)
    n = design.shape[0]

    def rss(z):
        resid = data.targets - design @ (z[:order] - z[order:])
        return float(resid @ resid) / n

    def grad(z):
        g = -2.0 * design.T @ (data.targets - design @ (z[:order] - z[order:])) / n
        return np.concatenate([g, -g])

    result = minimize(
        rss,
        np.full(2 * order, budget / (4 * order)),
        jac=grad,
        method="SLSQP",
        bounds=[(0.0, None)] * (2 * order),
        constraints=[{"type": "ineq", "fun": lambda z: budget - z.sum(), "jac": lambda z: -np.ones_like(z)}],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert result.success, result.message
    return result.x[:order] - result.x[order:]


class TestLasso:
    @pytest.mark.parametrize(
        "theta, seed, budget",
        [
            ((0.8, -1.5), 1, 1.0),
            ((0.6, -0.9, 1.2), 2, 1.0),
            ((0.0, 2.0, -0.4), 3, 1.0),
            # An absolute Newton-decrement stop hit its iteration cap here at a tight tolerance.
            ((0.8, -1.2, 0.5), 1, 1.5),
        ],
        # Explicit ids keep the names of the C = 1 rows stable.
        ids=["theta0-1", "theta1-2", "theta2-3", "theta3-1-budget1.5"],
    )
    def test_active_budget_matches_slsqp(self, theta, seed, budget):
        data = dataset(theta, 200, seed)
        fitted = lasso_fit(data, ModelSpec(len(theta), budget), BaselineConfig())
        assert np.abs(fitted).sum() == pytest.approx(budget, abs=1e-6)
        np.testing.assert_allclose(fitted, slsqp_split(data, len(theta), budget), atol=1e-6)

    @pytest.mark.parametrize("theta", [(0.1, -0.2), (0.3, -0.2, 0.05)])
    def test_inactive_budget_equals_least_squares(self, theta):
        data = dataset(theta, 200, 4)
        spec = ModelSpec(len(theta), 10.0)
        free, *_ = np.linalg.lstsq(design_matrix(data.inputs, len(theta)), data.targets, rcond=None)
        assert np.abs(free).sum() < 10.0
        np.testing.assert_allclose(lasso_fit(data, spec, BaselineConfig()), free, atol=1e-6)

    @pytest.mark.parametrize("theta, seed, share", [((0.8, -1.5), 1, 0.3), ((0.6, -0.9, 1.2), 2, 0.1)])
    def test_penalised_form_at_its_own_budget(self, theta, seed, share):
        # The penalised solution at lam is the constrained one at C = ||theta_lam||_1.
        data = dataset(theta, 200, seed)
        design = design_matrix(data.inputs, len(theta))
        lam = share * 2.0 * float(np.abs(design.T @ data.targets).max())
        penalised = lasso_coordinate_descent(design, data.targets, lam)
        budget = float(np.abs(penalised).sum())
        assert 0.0 < budget < np.abs(np.linalg.lstsq(design, data.targets, rcond=None)[0]).sum()
        fitted = lasso_fit(data, ModelSpec(len(theta), budget), BaselineConfig())
        np.testing.assert_allclose(fitted, penalised, atol=1e-6)


class TestNonFiniteStatistics:
    @pytest.mark.parametrize("fit", [ip_fit, lasso_fit, bayesian_lasso_fit])
    def test_overflowing_basis_raises_up_front(self, fit):
        xs = np.linspace(0.0, 1.0, 20)
        xs[3] = 1e100
        data = Dataset(xs, np.ones(20))
        rng = [np.random.default_rng([0])] if fit is bayesian_lasso_fit else []
        # The basis itself overflows. Any other floating-point warning, as from
        # Newton steps on NaN iterates, fails the test.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                with pytest.raises(BalsonError, match="non-finite Gram or X'y"):
                    fit(data, ModelSpec(5, 1.0), BaselineConfig(), *rng)

    @pytest.mark.parametrize("scale, budget", OVERFLOWING_TARGETS)
    @pytest.mark.parametrize("fit", [ip_fit, lasso_fit])
    def test_overflowing_stop_target_raises(self, fit, scale, budget):
        # The Gram and X'y are finite, so only the QP core can tell: y'y or
        # the gap's terms, which grow as C^2, overflow.
        data, spec = overflowing_problem(scale, budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                with pytest.raises(BalsonError, match="^simplex QP stop target is inf: "):
                    fit(data, spec, BaselineConfig())

    def test_bayesian_lasso_reads_no_yty(self):
        data, spec = overflowing_problem(1e160, 1.0)
        with np.errstate(over="ignore"):
            fitted = bayesian_lasso_fit(data, spec, BaselineConfig(gibbs=SHORT_CHAIN), np.random.default_rng([0]))
        expected = reference_bayesian_lasso(data, spec, SHORT_CHAIN, np.random.default_rng([0]))
        # The small coefficients come from cancellation between ones near 1e160,
        # so the chains agree to a share of the largest, not of each.
        np.testing.assert_allclose(fitted, expected, rtol=0.0, atol=1e-10 * np.abs(expected).max())


class TestIp:
    @pytest.mark.parametrize("theta, seed", [((0.7, 0.9), 6), ((0.2, 0.5, 0.6), 7), ((0.9, -0.3, 0.4), 8)])
    def test_matches_slsqp(self, theta, seed):
        data = dataset(theta, 200, seed)
        order = len(theta)
        design = design_matrix(data.inputs, order)
        n = design.shape[0]

        def rss(t):
            resid = data.targets - design @ t
            return float(resid @ resid) / n

        oracle = minimize(
            rss,
            np.full(order, 0.5 / order),
            jac=lambda t: -2.0 * design.T @ (data.targets - design @ t) / n,
            method="SLSQP",
            bounds=[(0.0, None)] * order,
            constraints=[{"type": "ineq", "fun": lambda t: 1.0 - t.sum(), "jac": lambda t: -np.ones(order)}],
            options={"ftol": 1e-14, "maxiter": 1000},
        )
        assert oracle.success, oracle.message
        fitted = ip_fit(data, ModelSpec(order, 1.0), BaselineConfig()).theta
        # Both answers are exactly sparse where the bound is active: theta_2 = 0 at (0.9, -0.3, 0.4).
        assert np.array_equal(fitted > 0, oracle.x > 0) and fitted.sum() <= 1.0
        np.testing.assert_allclose(fitted, oracle.x, atol=1e-6)

    def test_step_cap_raises(self, monkeypatch):
        # This solve takes 5 active-set steps; one step per coordinate, the slack's included, allows 4.
        monkeypatch.setattr(baselines, "_STEP_CAP", 1)
        with pytest.raises(BalsonError, match="^simplex QP did not converge in 4 active-set steps$"):
            ip_fit(dataset((0.5, 0.2, -0.3), 200, 0), ModelSpec(3, 1.0), BaselineConfig())

    def test_uncertified_answer_raises(self, monkeypatch):
        # Every negative multiplier now counts as rounding, so the core stops at
        # its start vertex, which is not the minimiser: the certificate catches it.
        monkeypatch.setattr(baselines, "_ROUNDING_ULPS", 1e30)
        with pytest.raises(BalsonError, match="^simplex QP answer failed its certificate: Frank-Wolfe gap "):
            ip_fit(dataset((0.2, 0.5, 0.6), 200, 7), ModelSpec(3, 1.0), BaselineConfig())

    @pytest.mark.parametrize("gap_tol", [0.0, -1e-8, float("nan"), float("inf")])
    def test_invalid_params(self, gap_tol):
        # gap_tol = inf would make the core's certificate pass any answer.
        with pytest.raises(ValueError, match="gap_tol"):
            IpParams(gap_tol=gap_tol)


class TestLooseBudget:
    """y = 0.3 + 0.5 x is the model at sum theta = 0.8, so at any budget
    C >= 0.8 the minimum is RSS 0 there, however far C is from binding."""

    @pytest.mark.parametrize("budget", [1.0, 1e3, 1e6, 1e10, 1e20, 1e80])
    @pytest.mark.parametrize("fit", [ip_fit, lasso_fit])
    def test_exact_fit_at_any_budget(self, fit, budget):
        data, spec = overflowing_problem(1.0, budget)
        fitted = fit(data, spec, BaselineConfig())
        theta = getattr(fitted, "theta", fitted)
        resid = data.targets - design_matrix(data.inputs, spec.order) @ theta
        assert float(resid @ resid) <= 1e-9
        assert np.abs(theta).sum() == pytest.approx(0.8, abs=1e-9)


class TestSingularGram:
    """IP and LASSO where the Gram is singular and the budget may bind.

    The optimality check is the Frank-Wolfe gap g'theta - min over the
    feasible set of g'x, with g = grad RSS(theta): an upper bound on
    RSS(theta) minus the minimum. The core certifies the gap within
    ``gap_tol`` max(RSS, 1) plus 2K ulps of C (C max|2G| + max|2X'y|), the
    size of the gap's terms, over its K coordinates (one more for the
    slack). At the exact answer the gap is rounding alone, so recomputing
    it here stays within the same allowance.
    """

    @staticmethod
    def assert_within_tolerance(design, targets, theta, budget, gap_of, coords):
        gram, xty = design.T @ design, design.T @ targets
        resid = targets - design @ theta
        grad = -2.0 * design.T @ resid
        terms = budget * (budget * 2.0 * np.abs(gram).max() + 2.0 * np.abs(xty).max())
        rounding = 2.0 * coords * np.finfo(float).eps * terms
        assert gap_of(grad, theta, budget) <= IpParams().gap_tol * max(float(resid @ resid), 1.0) + rounding

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 30),
        distinct=st.integers(1, 3),
        budget=st.floats(0.1, 10.0),
        split=st.booleans(),
        target_scale=st.floats(0.01, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solves_to_the_gap_tolerance(self, n, distinct, budget, split, target_scale, seed):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1.0, 1.0, n)
        half = design_matrix(xs, distinct)
        # [X, X] duplicates every column; [X, -X, z] is the signed split.
        design = np.hstack([half, -half, rng.standard_normal((n, 1))]) if split else np.hstack([half, half])
        targets = target_scale * rng.standard_normal(n)

        theta = ip_solve(design, targets, budget, IpParams())
        assert np.all(theta >= 0.0) and theta.sum() <= budget
        self.assert_within_tolerance(design, targets, theta, budget, simplex_gap, design.shape[1] + 1)

        # LASSO on its own split design, with up to 6 columns: more than N when N < 6.
        order = 2 * distinct
        theta = lasso_fit(Dataset(xs, targets), ModelSpec(order, budget), BaselineConfig())
        assert np.abs(theta).sum() <= budget
        self.assert_within_tolerance(design_matrix(xs, order), targets, theta, budget, l1_gap, 2 * order + 1)

    # Fewer points than coefficients. On 4471 the last step predicts a decrease
    # the size of rounding but is real. On 567's rank-1 face a freed coordinate's
    # negative multiplier is rounding, and the step blocked at length 0 by it
    # must stop the core, or it frees and drops the coordinate until its step cap.
    @pytest.mark.parametrize("seed, shape", [(4471, (2, 5)), (567, (1, 4))])
    def test_ip_with_fewer_points_than_coefficients(self, seed, shape):
        rng = np.random.default_rng(seed)
        design, targets = rng.standard_normal(shape), rng.standard_normal(shape[0])
        theta = ip_solve(design, targets, 5.0, IpParams())
        assert np.all(theta >= 0.0) and theta.sum() <= 5.0
        self.assert_within_tolerance(design, targets, theta, 5.0, simplex_gap, shape[1] + 1)

    def test_lasso_with_fewer_points_than_coefficients(self):
        # Ten split coefficients and the slack from four points, a Gram of rank 4; as on
        # 4471, the last step predicts a decrease the size of rounding but is real.
        rng = np.random.default_rng(56)
        xs = np.sort(rng.uniform(0, 1, 4))
        targets = 0.3 + 0.5 * xs + rng.standard_normal(4)
        theta = lasso_fit(Dataset(xs, targets), ModelSpec(5, 3.0), BaselineConfig())
        assert np.abs(theta).sum() <= 3.0
        self.assert_within_tolerance(design_matrix(xs, 5), targets, theta, 3.0, l1_gap, 11)


def simplex_gap(grad, theta, budget):
    """The Frank-Wolfe gap over {theta >= 0, sum theta <= C}."""
    return float(grad @ theta) - budget * min(float(grad.min()), 0.0)


def l1_gap(grad, theta, budget):
    """The Frank-Wolfe gap over the L1 ball {||theta||_1 <= C}."""
    return float(grad @ theta) + budget * float(np.abs(grad).max())


class TestConfigFromMapping:
    def test_lasso_key_is_deprecated_but_loads(self):
        with pytest.warns(DeprecationWarning, match="lasso"):
            cfg = config_from_mapping({"baselines": {"lasso": {"max_bisections": 3}, "ip": {"gap_tol": 1e-8}}})
        assert cfg.baselines.ip.gap_tol == 1e-8

    def test_no_warning_without_lasso_key(self, recwarn):
        config_from_mapping({"baselines": {"ip": {"gap_tol": 1e-8}}})
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]

    def test_nan_hyperprior_is_rejected_with_its_section(self):
        raw = json.loads('{"baselines": {"gibbs": {"hyper_rate": NaN}}}')
        with pytest.raises(ValueError, match="^baselines.gibbs config: hyperprior parameters"):
            config_from_mapping(raw)


def reference_bayesian_lasso(data, spec, params, rng):
    """The Gibbs chain in plain numpy: every draw made up front, Cholesky and general solves.

    Its four streams are bayesian_lasso_fit's: z for beta, then the
    inverse-Gaussians' normals and uniforms, then the gammas, each from a
    child generator seeded by one of four integers from ``rng``.
    """
    design = design_matrix(data.inputs, spec.order)
    gram = design.T @ design
    corr = design.T @ data.targets
    k, iterations = spec.order, params.iterations
    normals, ig_normals, uniforms, gammas = (np.random.default_rng(int(s)) for s in rng.integers(2**63, size=4))
    zs = normals.standard_normal((iterations, k))
    nus = ig_normals.standard_normal((iterations, k))
    us = uniforms.random((iterations, k))
    gs = gammas.standard_gamma(k + params.hyper_shape, iterations)
    tau_sq, lam_sq, total = np.ones(k), 1.0, np.zeros(k)
    for it in range(iterations):
        chol = np.linalg.cholesky(gram + np.diag(1.0 / tau_sq))
        mean = np.linalg.solve(chol.T, np.linalg.solve(chol, corr))
        beta = mean + np.linalg.solve(chol.T, zs[it])
        # Michael, Schucany & Haas (1976) for IG(mu, lam_sq), as numpy's wald computes it.
        mu = np.sqrt(lam_sq) / np.maximum(np.abs(beta), 1e-12)
        y = mu * nus[it] * nus[it]
        with np.errstate(divide="ignore"):
            x = mu * (1.0 - 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * lam_sq / y)))
            inv_tau_sq = np.where(us[it] <= mu / (mu + x), x, mu * mu / x)
            tau_sq = np.clip(1.0 / inv_tau_sq, 1e-10, 1e10)
        lam_sq = gs[it] / (params.hyper_rate + 0.5 * float(tau_sq.sum()))
        if it >= params.burn_in:
            total += beta
    return total / (iterations - params.burn_in)


def per_iteration_bayesian_lasso(data, spec, params, rng):
    """The Gibbs chain drawn one iteration at a time from ``rng`` itself.

    Normals, one array wald draw, then one gamma per iteration: the stream
    that bayesian_lasso_fit used before it drew in blocks. Its chain has the
    same transition law, so it is an oracle for seed means.
    """
    design = design_matrix(data.inputs, spec.order)
    gram = design.T @ design
    corr = design.T @ data.targets
    k = spec.order
    tau_sq, lam_sq, total = np.ones(k), 1.0, np.zeros(k)
    for it in range(params.iterations):
        chol = np.linalg.cholesky(gram + np.diag(1.0 / tau_sq))
        mean = np.linalg.solve(chol.T, np.linalg.solve(chol, corr))
        beta = mean + np.linalg.solve(chol.T, rng.standard_normal(k))
        inv_tau_sq = rng.wald(np.sqrt(lam_sq) / np.maximum(np.abs(beta), 1e-12), lam_sq)
        tau_sq = np.clip(1.0 / inv_tau_sq, 1e-10, 1e10)
        lam_sq = rng.gamma(k + params.hyper_shape, 1.0 / (params.hyper_rate + 0.5 * float(tau_sq.sum())))
        if it >= params.burn_in:
            total += beta
    return total / (params.iterations - params.burn_in)


def paper_problem(repetition):
    """A paper bench problem at the defaults, with its Bayesian-LASSO seed at base seed 0."""
    cfg = ExperimentConfig()
    train, _, _ = generate_dataset(cfg, repetition)
    return train, ModelSpec(cfg.order, cfg.budget), method_seed(0, repetition, "BayesianLASSO")


def signed_problem():
    """K = 10 sparse mixed-sign coefficients on 1000 points of [-1, 1]."""
    theta = np.array([0.0, 0.5, 0.0, -0.3, 0.0, 0.0, 0.0, 0.0, 0.15, 0.0])
    xs = np.linspace(-1.0, 1.0, 1000)
    return Dataset(xs, predict(theta, xs) + np.random.default_rng([0]).standard_normal(xs.shape[0]))


SHORT_CHAIN = GibbsParams(iterations=1500, burn_in=300)


class TestBayesianLasso:
    @staticmethod
    def assert_matches_reference(data, spec, seed, params):
        # LAPACK solves replace general ones, so the bits may differ; the
        # random streams are the same, so the chains agree to rounding.
        fitted = bayesian_lasso_fit(data, spec, BaselineConfig(gibbs=params), np.random.default_rng([seed]))
        expected = reference_bayesian_lasso(data, spec, params, np.random.default_rng([seed]))
        np.testing.assert_allclose(fitted, expected, rtol=0.0, atol=1e-12)

    def test_matches_reference_k2(self):
        self.assert_matches_reference(dataset((0.8, -1.5), 200, 1), ModelSpec(2, 1.0), 5, SHORT_CHAIN)

    def test_matches_reference_paper_full_chain(self):
        data, spec, seed = paper_problem(0)
        self.assert_matches_reference(data, spec, seed, GibbsParams())

    def test_matches_reference_signed_k10(self):
        self.assert_matches_reference(signed_problem(), ModelSpec(10, 1.0), 11, SHORT_CHAIN)

    @pytest.mark.parametrize("block", [1, 7, 6000])
    def test_same_bits_at_any_block_size(self, monkeypatch, block):
        data, spec, seed = paper_problem(0)
        expected = bayesian_lasso_fit(data, spec, BaselineConfig(), np.random.default_rng([seed]))
        monkeypatch.setattr(baselines, "_GIBBS_BLOCK", block)
        fitted = bayesian_lasso_fit(data, spec, BaselineConfig(), np.random.default_rng([seed]))
        assert fitted.tobytes() == expected.tobytes()

    def test_seed_means_match_the_per_iteration_chain(self):
        # Both chains have the same transition law, so over independent seeds
        # their posterior-mean estimates have the same distribution.
        data, spec, _ = paper_problem(0)
        params = GibbsParams(iterations=600, burn_in=100)
        seeds = range(24)
        blocked = np.array(
            [bayesian_lasso_fit(data, spec, BaselineConfig(gibbs=params), np.random.default_rng([s])) for s in seeds]
        )
        stepped = np.array(
            [per_iteration_bayesian_lasso(data, spec, params, np.random.default_rng([s, 1])) for s in seeds]
        )
        stderr = np.sqrt((blocked.var(axis=0, ddof=1) + stepped.var(axis=0, ddof=1)) / len(seeds))
        assert np.all(np.abs(blocked.mean(axis=0) - stepped.mean(axis=0)) <= 4.0 * stderr)

    def test_same_seed_same_bits(self):
        data, spec, seed = paper_problem(3)
        cfg = BaselineConfig(gibbs=SHORT_CHAIN)
        first = bayesian_lasso_fit(data, spec, cfg, np.random.default_rng([seed]))
        second = bayesian_lasso_fit(data, spec, cfg, np.random.default_rng([seed]))
        assert first.tobytes() == second.tobytes()

    def test_overflowing_basis_raises(self):
        xs = np.linspace(0.0, 1.0, 20)
        xs[3] = 1e100
        data = Dataset(xs, np.ones(20))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BalsonError, match="non-finite"):
                bayesian_lasso_fit(data, ModelSpec(5, 1.0), BaselineConfig(gibbs=SHORT_CHAIN), np.random.default_rng([0]))

    def test_indefinite_precision_raises(self):
        # A finite Gram with entries near 1e160 swamps the unit prior precision.
        xs = np.linspace(0.0, 1.0, 20)
        xs[3] = 1e20
        data = Dataset(xs, np.ones(20))
        with pytest.raises(BalsonError, match="singular conditional covariance at iteration 0"):
            bayesian_lasso_fit(data, ModelSpec(5, 1.0), BaselineConfig(gibbs=SHORT_CHAIN), np.random.default_rng([0]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 100, "burn_in": 100},
            {"iterations": 10, "burn_in": 20},
            {"hyper_shape": 0.0},
            {"hyper_rate": -1.0},
            {"iterations": 60, "burn_in": -5},
            {"hyper_shape": float("nan")},
            {"hyper_rate": float("nan")},
            {"hyper_rate": float("inf")},
            {"hyper_shape": float("inf")},
        ],
        # Explicit ids keep each case's name from before the two seed cases,
        # kwargs5 and kwargs6, were deleted with GibbsParams.seed.
        ids=[f"kwargs{i}" for i in (0, 1, 2, 3, 4, 7, 8, 9, 10)],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            GibbsParams(**kwargs)


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 12345])
def test_inverse_gaussian_is_numpys_wald(seed):
    # Generator.wald draws one normal and then one uniform per value; fed the
    # same two values, the transform returns the same bits.
    params = np.random.default_rng([seed, 99])
    # Means over 18 decades: the sampler's sqrt(lam_sq) / max(|beta|, 1e-12) can span that.
    means = (10.0 ** params.uniform(-6.0, 12.0, size=800)).tolist()
    shapes = (10.0 ** params.uniform(-4.0, 4.0, size=800)).tolist()
    wald_rng = np.random.default_rng([seed])
    draws = np.random.default_rng([seed])
    expected = np.array([wald_rng.wald(m, s) for m, s in zip(means, shapes)])
    transformed = np.array(
        [_inverse_gaussian(m, s, draws.standard_normal(), draws.random()) for m, s in zip(means, shapes)]
    )
    assert transformed.tobytes() == expected.tobytes()


def test_inverse_gaussian_edges():
    # A zero normal gives the mean whichever branch the uniform takes.
    assert [_inverse_gaussian(2.5, 0.3, 0.0, u) for u in (0.0, 0.5, 0.999)] == [2.5, 2.5, 2.5]
    # A vanishing shape gives 0, as numpy's wald does; the chain clips 1/0 to tau^2 = 1e10.
    assert _inverse_gaussian(1e300, 1e-300, 1.0, 0.5) == 0.0
    assert np.random.default_rng([3]).wald(1e300, 1e-300) == 0.0
