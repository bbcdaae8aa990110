"""Shared oracles for the test suite, one way into the sampling kernels, one
reader of a bench run's files, and inputs on which the QP core's stop target
overflows.

The oracles are deliberately independent of the library's computation
paths: residuals are summed directly, densities are integrated on grids,
and optima are located by brute-force search. :func:`draw` is not an
oracle; it runs one RS or IS pass as the sampling loop runs its round 0.
"""

import csv

import numpy as np
import pytest

from balson import Dataset, ModelSpec, design_matrix, samplers


def draw(kind, data, prior, spec, cfg, rng=None):
    """One pass of the ``kind`` ("rs" or "is") kernel on ``data`` from ``prior``.

    The pass gets its own L-row workspace, so its samples outlive later
    passes, and draws from round 0's stream unless ``rng`` is given.
    """
    kernel = {"rs": samplers._rejection, "is": samplers._importance}[kind]
    if rng is None:
        rng = samplers.round_rng(cfg.seed, 0)
    ws = samplers._Workspace(cfg.sample_count, len(prior))
    return kernel(samplers.Problem.of(data, prior, spec), prior, cfg, rng, ws)


# (scale of y, budget C) at which the QP core's stop target overflows: y'y
# does at y ~ 1e160, and the gap's terms, which grow as C^2, at C = 1e160.
OVERFLOWING_TARGETS = [(1e160, 1.0), (1e150, 1e160)]


def overflowing_problem(scale, budget):
    """y = scale (0.3 + 0.5 x) on 50 points of [0, 1], fitted at order 5 and ``budget``."""
    xs = np.linspace(0.0, 1.0, 50)
    return Dataset(xs, scale * (0.3 + 0.5 * xs)), ModelSpec(5, budget)


def bench_outputs(out):
    """Every file a bench run wrote to ``out``, by name; runs.csv as its rows
    without wall_clock_s, the one column that is not a function of the config."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    with (out / "runs.csv").open(newline="") as handle:
        files["runs.csv"] = [
            {k: v for k, v in row.items() if k != "wall_clock_s"} for row in csv.DictReader(handle)
        ]
    return files


def direct_rss(theta, xs, ys):
    """Residual sum of squares by plain per-point summation."""
    total = 0.0
    theta = np.asarray(theta, dtype=float)
    for x, y in zip(xs, ys):
        pred = sum(theta[k] * x**k for k in range(len(theta)))
        total += (y - pred) ** 2
    return total


def grid_min_rss(xs, ys, order, budget=1.0, signed=False, steps=200):
    """Brute-force minimum RSS over a grid of the feasible coefficients.

    The feasible set is the scaled simplex {theta >= 0, sum theta = budget},
    or with ``signed`` the L1 ball {sum |theta| <= budget}; the grid steps by
    budget / steps in every coordinate. Residuals are summed directly from
    the powers x^k, chunk by chunk over the grid.
    """
    if signed:
        axes = np.meshgrid(*[np.arange(-steps, steps + 1)] * order, indexing="ij")
        units = np.stack([a.ravel() for a in axes], axis=1)
        units = units[np.abs(units).sum(axis=1) <= steps]
    else:
        axes = np.meshgrid(*[np.arange(steps + 1)] * (order - 1), indexing="ij")
        head = np.stack([a.ravel() for a in axes], axis=1)
        head = head[head.sum(axis=1) <= steps]
        units = np.concatenate([head, steps - head.sum(axis=1, keepdims=True)], axis=1)
    thetas = budget * units / steps
    powers = np.asarray(xs, dtype=float)[:, None] ** np.arange(order)
    best = np.inf
    for start in range(0, thetas.shape[0], 10_000):
        resid = np.asarray(ys, dtype=float) - thetas[start : start + 10_000] @ powers.T
        best = min(best, float(np.einsum("ij,ij->i", resid, resid).min()))
    return best


def quadrature_posterior_k2(data: Dataset, alpha, budget=1.0, nodes=10_000):
    """Midpoint-rule moments of the normalized (likelihood x prior) density, K=2.

    Residuals are recomputed directly from the design so the oracle shares no
    code path with the samplers.
    """
    alpha = np.asarray(alpha, dtype=float)
    w1 = (np.arange(nodes) + 0.5) / nodes
    omegas = np.stack([w1, 1.0 - w1], axis=1)
    design = design_matrix(data.inputs, 2)
    resid = data.targets[:, None] - design @ (budget * omegas.T)
    logp = -0.5 * np.einsum("ij,ij->j", resid, resid)
    logp += (alpha[0] - 1.0) * np.log(w1) + (alpha[1] - 1.0) * np.log(1.0 - w1)
    p = np.exp(logp - logp.max())
    p /= p.sum()
    mean = p @ omegas
    variance = p @ (omegas - mean) ** 2
    return mean, variance


def weighted_se_mean(sample_set):
    """Monte-Carlo standard error of the weighted mean, per component."""
    m = sample_set.weights @ sample_set.samples
    return np.sqrt(np.sum(sample_set.weights[:, None] ** 2 * (sample_set.samples - m) ** 2, axis=0))


def weighted_se_var(sample_set):
    """Monte-Carlo standard error of the weighted variance, per component."""
    m = sample_set.weights @ sample_set.samples
    v = sample_set.weights @ (sample_set.samples - m) ** 2
    dev = (sample_set.samples - m) ** 2 - v
    return np.sqrt(np.sum(sample_set.weights[:, None] ** 2 * dev**2, axis=0))


def simplex_grid_argmax_face(alpha, resolution=1e-3):
    """Brute-force argmax of the Dirichlet log density for K=3 concentrations.

    Coordinates with alpha_i <= 1 are pinned to the zero boundary (where the
    density is maximal or unbounded for them); the remaining face is searched
    on a regular grid.
    """
    alpha = np.asarray(alpha, dtype=float)
    above = alpha > 1.0
    idx = np.where(above)[0]
    if idx.size == 0:
        raise ValueError("needs at least one concentration above 1")
    point = np.zeros(3)
    if idx.size == 1:
        point[idx[0]] = 1.0
        return point
    if idx.size == 2:
        t = np.arange(0.0, 1.0 + resolution / 2, resolution)
        with np.errstate(divide="ignore"):
            vals = (alpha[idx[0]] - 1.0) * np.log(t) + (alpha[idx[1]] - 1.0) * np.log(1.0 - t)
        best = t[np.argmax(vals)]
        point[idx[0]] = best
        point[idx[1]] = 1.0 - best
        return point
    # all three above 1: full 2-D grid over the simplex interior
    t = np.arange(resolution, 1.0, resolution)
    g1, g2 = np.meshgrid(t, t, indexing="ij")
    g3 = 1.0 - g1 - g2
    ok = g3 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (
            (alpha[0] - 1.0) * np.log(g1)
            + (alpha[1] - 1.0) * np.log(g2)
            + (alpha[2] - 1.0) * np.log(np.where(ok, g3, np.nan))
        )
    vals = np.where(ok, vals, -np.inf)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    return np.array([g1[i, j], g2[i, j], g3[i, j]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
