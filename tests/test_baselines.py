"""Baseline solvers against independent optimisers.

The oracle is scipy's SLSQP on the same constrained least-squares problem,
with the residual sum of squares computed directly from the design.

``IpParams.newton_tol`` bounds the barrier solve's error in RSS, not in the
coefficients: an RSS error eps allows a coefficient error of about
sqrt(eps / lambda_min(G)), 1e-5 at the default 1e-8 on these 200-point
problems. Tests that compare coefficients to 1e-6 therefore tighten it.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from balson import (
    BaselineConfig,
    Dataset,
    IpParams,
    ModelSpec,
    design_matrix,
    ip_fit,
    lasso_coordinate_descent,
    lasso_fit,
)
from balson.bench import config_from_mapping

TIGHT = BaselineConfig(ip=IpParams(newton_tol=1e-14))


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
        "theta, seed", [((0.8, -1.5), 1), ((0.6, -0.9, 1.2), 2), ((0.0, 2.0, -0.4), 3)]
    )
    def test_active_budget_matches_slsqp(self, theta, seed):
        data = dataset(theta, 200, seed)
        spec = ModelSpec(len(theta), 1.0)
        fitted = lasso_fit(data, spec, TIGHT)
        assert np.abs(fitted).sum() == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(fitted, slsqp_split(data, len(theta), 1.0), atol=1e-6)
        default = lasso_fit(data, spec, BaselineConfig())
        np.testing.assert_allclose(default, fitted, atol=1e-4)

    @pytest.mark.parametrize("theta", [(0.1, -0.2), (0.3, -0.2, 0.05)])
    def test_inactive_budget_equals_least_squares(self, theta):
        data = dataset(theta, 200, 4)
        spec = ModelSpec(len(theta), 10.0)
        free, *_ = np.linalg.lstsq(design_matrix(data.inputs, len(theta)), data.targets, rcond=None)
        assert np.abs(free).sum() < 10.0
        np.testing.assert_allclose(lasso_fit(data, spec, TIGHT), free, atol=1e-6)
        np.testing.assert_allclose(lasso_fit(data, spec, BaselineConfig()), free, atol=1e-4)

    @pytest.mark.parametrize("theta, seed, share", [((0.8, -1.5), 1, 0.3), ((0.6, -0.9, 1.2), 2, 0.1)])
    def test_penalised_form_at_its_own_budget(self, theta, seed, share):
        # The penalised solution at lam is the constrained one at C = ||theta_lam||_1.
        data = dataset(theta, 200, seed)
        design = design_matrix(data.inputs, len(theta))
        lam = share * 2.0 * float(np.abs(design.T @ data.targets).max())
        penalised = lasso_coordinate_descent(design, data.targets, lam)
        budget = float(np.abs(penalised).sum())
        assert 0.0 < budget < np.abs(np.linalg.lstsq(design, data.targets, rcond=None)[0]).sum()
        fitted = lasso_fit(data, ModelSpec(len(theta), budget), TIGHT)
        np.testing.assert_allclose(fitted, penalised, atol=1e-6)


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
        spec = ModelSpec(order, 1.0)
        fitted = ip_fit(data, spec, TIGHT).theta
        assert np.all(fitted > 0.0) and fitted.sum() <= 1.0
        np.testing.assert_allclose(fitted, oracle.x, atol=1e-6)
        np.testing.assert_allclose(ip_fit(data, spec, BaselineConfig()).theta, fitted, atol=1e-4)


class TestConfigFromMapping:
    def test_lasso_key_is_deprecated_but_loads(self):
        with pytest.warns(DeprecationWarning, match="lasso"):
            cfg = config_from_mapping({"baselines": {"lasso": {"max_bisections": 3}, "ip": {"mu0": 2.0}}})
        assert cfg.baselines.ip.mu0 == 2.0

    def test_no_warning_without_lasso_key(self, recwarn):
        config_from_mapping({"baselines": {"ip": {"mu0": 2.0}}})
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]
