"""The solver's per-solve residual problem, its RS floor, the signed entry point,
and what a failed solve leaves reachable."""

import dataclasses
import re
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammainccinv

from balson import (
    BalsonConfig,
    BaselineConfig,
    Dataset,
    DirichletParams,
    GibbsParams,
    ModelSpec,
    RejectionBudgetError,
    SamplerConfig,
    bayesian_lasso_fit,
    design_matrix,
    ip_fit,
    lasso_fit,
    solve,
    solve_signed,
    uniform_prior,
)
from balson import baselines, model, samplers, solver
from balson.bench import PAPER_THETA, ExperimentConfig, generate_dataset, method_seed
from balson.exceptions import BalsonError, MomentMatchingError
from balson.model import ResidualForm, predict
from balson.solver import METHODS
from conftest import direct_rss, grid_min_rss

N_BIG = 20_000
ROWS = 2_000
# RS accepts about 2e-3 of its proposals on paper_like(N_BIG), so with
# L = 10^4 it stops after one chunk, far below this cap.
FAILING = dict(sample_count=10_000, max_proposals=1_000_000)
ACCEPTANCES = re.compile(r"(\d+) proposals yielded (\d+) acceptances")


def paper_like(n, seed=0):
    xs = np.linspace(0.0, 1.0, n)
    noise = np.random.default_rng(seed).standard_normal(n)
    return Dataset(xs, predict(np.asarray(PAPER_THETA), xs) + noise)


def config(method, sample_count=100, resample_rounds=3, max_proposals=None):
    return BalsonConfig(
        method,
        uniform_prior(len(PAPER_THETA)),
        ModelSpec(len(PAPER_THETA), 1.0),
        SamplerConfig(
            sample_count=sample_count,
            resample_rounds=resample_rounds,
            max_proposals=max_proposals,
            seed=3,
        ),
    )


def buffer_rows(array):
    """Rows of the buffer that ``array`` keeps alive: its own, or its base's if a view."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array.shape[0] if array.ndim > 0 else 0


def large_arrays(err, rows):
    """(frame, name) of every traceback local that is, or holds as an attribute, an
    ndarray keeping a buffer of at least ``rows`` rows alive; follows the chain of causes.

    A Dataset's attributes are not searched: it is the caller's input, which
    the caller keeps alive anyway.
    """
    found = []
    while err is not None:
        tb = err.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            for name, value in frame.f_locals.items():
                attrs = {} if isinstance(value, Dataset) else getattr(value, "__dict__", {})
                held = [(name, value), *attrs.items()]
                for attr, array in held:
                    if isinstance(array, np.ndarray) and buffer_rows(array) >= rows:
                        found.append((frame.f_code.co_name, attr))
            tb = tb.tb_next
        err = err.__cause__ or err.__context__
    return found


class TestFailedSolvePinsNothing:
    """A caught RejectionBudgetError must not keep the design or a proposal chunk alive."""

    @pytest.mark.parametrize("method", ["RS", "RSIRS"])
    def test_solve(self, method):
        data = paper_like(N_BIG)
        with pytest.raises(RejectionBudgetError, match="proposals yielded") as info:
            solve(data, config(method, **FAILING))
        # The pass stopped early, at the raise site that also ends a spent budget.
        assert int(ACCEPTANCES.search(str(info.value)).group(1)) < FAILING["max_proposals"]
        assert large_arrays(info.value, N_BIG) == []

    def test_check_sees_a_pinned_design(self):
        # The check itself: a frame that holds the design is reported.
        def failing(design):
            raise RejectionBudgetError("0 proposals yielded 0 acceptances")

        try:
            failing(np.zeros((N_BIG, 5)))
        except RejectionBudgetError as err:
            assert large_arrays(err, N_BIG) == [("failing", "design")]

    def test_check_sees_a_pinned_workspace(self):
        # An object's attributes are searched, and a view counts as its buffer.
        class Holder:
            def __init__(self):
                self.draws = np.zeros((N_BIG, 5))

        def failing(holder, head):
            raise RejectionBudgetError("0 proposals yielded 0 acceptances")

        holder = Holder()
        try:
            failing(holder, holder.draws[:10])
        except RejectionBudgetError as err:
            assert large_arrays(err, N_BIG) == [
                ("test_check_sees_a_pinned_workspace", "draws"),
                ("failing", "draws"),
                ("failing", "head"),
            ]

    @pytest.mark.parametrize("method", ["RSIRS", "ISIRS"])
    def test_failure_after_round_0(self, monkeypatch, method):
        # Round 1 fails while its batch still views the workspace's draws.
        rows = 2_000
        match, matched = samplers.match_moments_per_dim, []

        def failing_in_round_1(mean, variance):
            if matched:
                raise MomentMatchingError("moment matching degenerate: no usable dimension")
            matched.append(match(mean, variance))
            return matched[-1]

        monkeypatch.setattr(samplers, "match_moments_per_dim", failing_in_round_1)
        with pytest.raises(MomentMatchingError, match="resampling round 1:") as info:
            solve(paper_like(100), config(method, sample_count=rows))
        assert large_arrays(info.value, rows) == []


class TestOneResidualProblemPerSolve:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"builds": 0, "floors": 0, "grams": []}
        init, sums, floor = ResidualForm.__init__, model._power_sums, samplers.min_rss

        def counted_init(self, *args, **kwargs):
            counts["builds"] += 1
            init(self, *args, **kwargs)

        def recorded_sums(*args):
            gram, xty = sums(*args)
            counts["grams"].append(gram.shape)
            return gram, xty

        def counted_floor(*args):
            counts["floors"] += 1
            return floor(*args)

        monkeypatch.setattr(ResidualForm, "__init__", counted_init)
        monkeypatch.setattr(model, "_power_sums", recorded_sums)
        monkeypatch.setattr(samplers, "min_rss", counted_floor)
        return counts

    SCHEMES = [("RS", 1), ("IS", 0), ("RSIRS", 1), ("ISIRS", 0)]

    @pytest.mark.parametrize(
        "signed, method, floors",
        [(False, *scheme) for scheme in SCHEMES] + [(True, *scheme) for scheme in SCHEMES],
        ids=[f"{m}-{f}" for m, f in SCHEMES] + [f"signed-{m}-{f}" for m, f in SCHEMES],
    )
    def test_built_once(self, counts, signed, method, floors):
        # One form per solve, built from the K x K power-sum Gram even when signed,
        # and the RS floor taken only by the schemes that start with RS.
        cfg = config(method, sample_count=200)
        if signed:
            cfg = dataclasses.replace(cfg, prior=uniform_prior(2 * len(PAPER_THETA)))
            assert solve_signed(paper_like(100), cfg).shape == (len(PAPER_THETA),)
        else:
            report = solve(paper_like(100), cfg)
            rounds = 1 if method in ("RS", "IS") else 4
            assert len(report.diagnostics.ess_per_round) == rounds
        k = len(PAPER_THETA)
        assert counts == {"builds": 1, "floors": floors, "grams": [(k, k)]}

    def test_no_fit_forms_the_design(self, monkeypatch):
        # Every form of a dataset fit comes from power sums, never from the
        # N x K design. The data are made first: predict forms the design.
        data, k = paper_like(100), len(PAPER_THETA)

        def no_design(*args):
            raise AssertionError("design_matrix called")

        for module in (model, samplers, solver, baselines):
            monkeypatch.setattr(module, "design_matrix", no_design, raising=False)
        spec, baseline = ModelSpec(k, 1.0), BaselineConfig(gibbs=GibbsParams(iterations=50, burn_in=10))
        for method in METHODS:
            assert solve(data, config(method, sample_count=200)).theta_star.theta.shape == (k,)
        signed = dataclasses.replace(config("IS", sample_count=200), prior=uniform_prior(2 * k))
        assert solve_signed(data, signed).shape == (k,)
        assert lasso_fit(data, spec, baseline).shape == (k,)
        assert ip_fit(data, spec, baseline).theta.shape == (k,)
        assert bayesian_lasso_fit(data, spec, baseline, np.random.default_rng([0])).shape == (k,)

    def test_form_keeps_only_statistics(self):
        form = ResidualForm(design_matrix(np.linspace(0, 1, 50), 3), np.ones(50))
        assert sorted(vars(form)) == ["gram", "xty", "yty"]


class TestSimplexFloor:
    def test_paper_repetition_5_stays_within_budget(self):
        # With the unconstrained least-squares floor, RS accepted 4.6e-4 of
        # its proposals here and ran out of all 10^7 of them.
        train, _, _ = generate_dataset(ExperimentConfig(), 5)
        cfg = BalsonConfig(
            "RS",
            uniform_prior(5),
            ModelSpec(5, 1.0),
            SamplerConfig(seed=method_seed(0, 5, "BALSON-RS")),
        )
        assert solve(train, cfg).diagnostics.acceptance_rate >= 1e-2


def failing_signed(method):
    """The benchmark's signed problem: K = 10 split into 20 dimensions, N = 1000,
    L = 10^4, a cap of 10^6 proposals and the bench seed of ``method``."""
    theta = np.array([0.0, 0.5, 0.0, -0.3, 0.0, 0.0, 0.0, 0.0, 0.15, 0.0])
    xs = np.linspace(-1.0, 1.0, 1000)
    data = Dataset(xs, predict(theta, xs) + np.random.default_rng([0]).standard_normal(1000))
    seed = method_seed(0, 0, f"BALSON-{method}")
    sampler = SamplerConfig(max_proposals=1_000_000, seed=seed)
    return data, BalsonConfig(method, uniform_prior(20), ModelSpec(10, 1.0), sampler)


class TestEarlyStop:
    """A rejection pass raises as soon as the proposals left cannot deliver L."""

    @pytest.mark.parametrize("method", ["RS", "RSIRS"])
    def test_failing_signed_solve_raises_after_one_chunk(self, method):
        # One chunk is L = 10^4 proposals.
        data, cfg = failing_signed(method)
        with pytest.raises(RejectionBudgetError) as info:
            solve_signed(data, cfg)
        assert ACCEPTANCES.search(str(info.value)).group(1) == "10000"

    def test_failing_signed_solve_allocates_one_l_row_workspace(self):
        # The L-row workspace holds 10^4 x (3 x 20 + 2) floats, 5 MB.
        data, cfg = failing_signed("RS")
        tracemalloc.start()
        try:
            with pytest.raises(RejectionBudgetError):
                solve_signed(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_paper_fits_never_reach_the_check(self, monkeypatch):
        # With only the spent-budget stop, RS and RSIRS on paper repetitions
        # 0-19 give the same bits: the check never fires there and draws
        # no random numbers.
        bench_cfg = ExperimentConfig()

        def fits():
            out = []
            for rep in range(20):
                train, _, _ = generate_dataset(bench_cfg, rep)
                for method in ("RS", "RSIRS"):
                    sampler = SamplerConfig(
                        resample_rounds=2, seed=method_seed(0, rep, f"BALSON-{method}")
                    )
                    cfg = BalsonConfig(method, uniform_prior(5), ModelSpec(5, 1.0), sampler)
                    report = solve(train, cfg)
                    out.append(
                        (
                            report.theta_star.theta.tobytes(),
                            report.alpha_star.alpha.tobytes(),
                            report.diagnostics.proposals,
                        )
                    )
            return out

        checked = fits()
        monkeypatch.setattr(
            samplers, "_cannot_finish", lambda accepted, proposed, need, left: left == 0
        )
        assert fits() == checked


class TestProposals:
    def test_paper_rs_proposes_in_chunks_of_l(self):
        # Repetition 0 accepts about a third of its proposals: a few chunks of L.
        train, _, _ = generate_dataset(ExperimentConfig(), 0)
        sampler = SamplerConfig(sample_count=200, seed=method_seed(0, 0, "BALSON-RS"))
        cfg = BalsonConfig("RS", uniform_prior(5), ModelSpec(5, 1.0), sampler)
        proposals = solve(train, cfg).diagnostics.proposals
        assert proposals % 200 == 0 and proposals <= 2_000

    @pytest.mark.parametrize("method", ["RS", "RSIRS"])
    def test_rejection_counts(self, method):
        diag = solve(paper_like(100), config(method, sample_count=200)).diagnostics
        accepted = diag.acceptance_rate * diag.proposals
        assert accepted == pytest.approx(round(accepted), abs=1e-6)
        assert diag.proposals >= round(accepted) >= 200

    @pytest.mark.parametrize("method", ["IS", "ISIRS"])
    def test_importance_draws_l(self, method):
        diag = solve(paper_like(100), config(method, sample_count=200)).diagnostics
        assert diag.proposals == 200
        assert diag.acceptance_rate == 1.0


class TestBackToBack:
    """Each solve allocates its own sampling workspace, so no solve sees another's state."""

    @pytest.mark.parametrize("method", ["RS", "IS", "RSIRS", "ISIRS"])
    def test_interleaved_solves_repeat_bit_for_bit(self, method):
        first_data, other_data = paper_like(100, seed=0), paper_like(300, seed=1)
        cfg = config(method, sample_count=500)
        first = solve(first_data, cfg)
        solve(other_data, config(method, sample_count=700))
        again = solve(first_data, cfg)
        assert again.theta_star.theta.tobytes() == first.theta_star.theta.tobytes()
        assert again.alpha_star.alpha.tobytes() == first.alpha_star.alpha.tobytes()
        untimed = [dataclasses.replace(r.diagnostics, wall_clock_s=0.0) for r in (first, again)]
        assert untimed[0] == untimed[1]


class TestSolveIsTheLoopPlusTheMode:
    @pytest.mark.parametrize("method", METHODS)
    def test_fields_come_from_the_trace(self, method):
        data, cfg = paper_like(100), config(method, sample_count=300)
        report = solve(data, cfg)
        problem = samplers.Problem.of(data, cfg.prior, cfg.spec)
        alpha, trace = samplers.fit_posterior(problem, cfg.prior, cfg.sampler, method)
        diag = report.diagnostics
        assert report.alpha_star.alpha.tobytes() == alpha.alpha.tobytes()
        assert diag.ess_per_round == tuple(r.ess for r in trace)
        assert diag.alpha0_trajectory == tuple(float(r.alpha.sum()) for r in trace)
        assert (diag.acceptance_rate, diag.proposals) == (trace[0].acceptance_rate, trace[0].proposals)

    def test_mean_fallback(self, monkeypatch):
        # No concentration exceeds 1, so the mode is undefined and the fit is the mean.
        alpha = DirichletParams([0.5, 1.0, 0.25, 0.75, 0.125])
        fit_posterior = solver.fit_posterior
        monkeypatch.setattr(solver, "fit_posterior", lambda *args: (alpha, fit_posterior(*args)[1]))
        cfg = dataclasses.replace(config("IS"), spec=ModelSpec(len(PAPER_THETA), 2.5))
        report = solve(paper_like(100), cfg)
        omega = alpha.alpha / alpha.alpha.sum()
        assert report.diagnostics.mean_fallback
        assert report.omega_star.values.tobytes() == omega.tobytes()
        assert report.theta_star.theta.tobytes() == (2.5 * omega).tobytes()

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method must be one of"):
            config("IRS")

    def test_clock_covers_the_problem_build(self, monkeypatch):
        # Building the residual form is part of the solve: a 20 ms power-sum
        # pass shows in the solve's time.
        sums = model._power_sums

        def slow_sums(*args):
            time.sleep(0.02)
            return sums(*args)

        monkeypatch.setattr(model, "_power_sums", slow_sums)
        assert solve(paper_like(100), config("IS")).diagnostics.wall_clock_s >= 0.02


class TestOverflowingBasis:
    def test_schemes_raise_non_finite(self):
        # The residual form rejects the overflowing statistics before any
        # scheme starts, with the message IP and LASSO give.
        xs = np.linspace(0.0, 1.0, 20)
        xs[3] = 1e100
        data = Dataset(xs, np.ones(20))
        for method in ("RS", "IS", "RSIRS", "ISIRS"):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(BalsonError, match="non-finite Gram or X'y") as info:
                    solve(data, config(method, sample_count=ROWS))
            # The error pins no workspace.
            assert large_arrays(info.value, ROWS) == []


class TestSolveSigned:
    THETA = (0.6, -0.3)
    BUDGET = 1.0

    @pytest.fixture(scope="class")
    def data(self):
        xs = np.linspace(-1.0, 1.0, 200)
        noise = np.random.default_rng(0).standard_normal(200)
        return Dataset(xs, predict(np.asarray(self.THETA), xs) + noise)

    @pytest.mark.parametrize("method", ["RS", "IS", "RSIRS", "ISIRS"])
    def test_budget_and_determinism(self, data, method):
        cfg = BalsonConfig(
            method,
            uniform_prior(4),
            ModelSpec(2, self.BUDGET),
            SamplerConfig(sample_count=1000, seed=7),
        )
        theta = solve_signed(data, cfg)
        assert theta.shape == (2,)
        assert np.abs(theta).sum() <= self.BUDGET * (1.0 + 1e-9)
        assert theta[0] > 0.0 > theta[1]  # the signs of the truth
        np.testing.assert_array_equal(solve_signed(data, cfg), theta)

    def test_prior_must_cover_the_split(self, data):
        cfg = BalsonConfig("IS", uniform_prior(2), ModelSpec(2, self.BUDGET), SamplerConfig())
        with pytest.raises(ValueError, match="twice the signed order"):
            solve_signed(data, cfg)


# name -> (true theta, signed); N points on [0, 1], or on [-1, 1] when signed.
BRUTE_FORCE_PROBLEMS = {
    "k2": ((0.3, 0.7), False),
    "k3": ((0.2, 0.0, 0.8), False),
    "k2_signed": ((0.6, -0.3), True),
}


def brute_force_problem(name, seed):
    """The problem's data at a noise seed, and its grid minimum RSS."""
    truth, signed = BRUTE_FORCE_PROBLEMS[name]
    xs = np.linspace(-1.0 if signed else 0.0, 1.0, 200)
    ys = predict(np.asarray(truth), xs) + np.random.default_rng([seed]).standard_normal(200)
    return Dataset(xs, ys), grid_min_rss(xs, ys, len(truth), signed=signed)


class TestAgainstBruteForce:
    """Every scheme's fit has an RSS close to the brute-force constrained minimum.

    The bound on the excess is twice the 1 - 1e-9 quantile of Gamma(d, 1),
    with d the sampled dimensions less one. Under the flat prior the
    posterior is proportional to exp(-RSS / 2), a log-concave density on a
    d-dimensional simplex, and the excess of such a density's -log over its
    minimum concentrates at scale d (Bobkov & Madiman 2011; Fradelizi,
    Madiman & Wang 2016).
    """

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", list(BRUTE_FORCE_PROBLEMS))
    def test_rss_excess_within_the_gamma_quantile(self, name, method, seed):
        truth, signed = BRUTE_FORCE_PROBLEMS[name]
        order = len(truth)
        width = 2 * order if signed else order
        data, floor = brute_force_problem(name, seed)
        cfg = BalsonConfig(
            method,
            uniform_prior(width),
            ModelSpec(order, 1.0),
            SamplerConfig(sample_count=2000, resample_rounds=10, seed=seed),
        )
        if signed:
            theta = solve_signed(data, cfg)
            assert np.abs(theta).sum() <= 1.0 + 1e-9
        else:
            theta = solve(data, cfg).theta_star.theta
            assert np.all(theta >= 0.0) and theta.sum() == pytest.approx(1.0, abs=1e-9)
        excess = direct_rss(theta, data.inputs, data.targets) - floor
        assert excess <= 2.0 * gammainccinv(width - 1, 1e-9)
