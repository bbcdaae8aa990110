"""The solver's per-solve residual problem, its RS floor, the signed entry point,
and what a failed solve leaves reachable."""

import dataclasses

import numpy as np
import pytest

from balson import (
    BalsonConfig,
    Dataset,
    ModelSpec,
    RejectionBudgetError,
    SamplerConfig,
    design_matrix,
    rejection_sample,
    solve,
    solve_signed,
    uniform_prior,
)
from balson import samplers
from balson.bench import PAPER_THETA, ExperimentConfig, generate_dataset, method_seed
from balson.exceptions import BalsonError, MomentMatchingError
from balson.model import ResidualForm, predict

N_BIG = 20_000
MAX_PROPOSALS = 2_000  # one chunk: below samplers._CHUNK


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
            solve(data, config(method, max_proposals=MAX_PROPOSALS))
        assert large_arrays(info.value, min(N_BIG, MAX_PROPOSALS)) == []

    def test_rejection_sample(self):
        data = paper_like(N_BIG)
        cfg = config("RS", max_proposals=MAX_PROPOSALS)
        with pytest.raises(RejectionBudgetError, match="proposals yielded") as info:
            rejection_sample(data, cfg.prior, cfg.spec, cfg.sampler)
        assert large_arrays(info.value, min(N_BIG, MAX_PROPOSALS)) == []

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
        counts = {"builds": 0, "floors": 0, "columns": []}
        init, floor = ResidualForm.__init__, samplers.min_rss

        def counted_init(self, *args):
            counts["builds"] += 1
            counts["columns"].append(args[0].shape[1])
            init(self, *args)

        def counted_floor(*args):
            counts["floors"] += 1
            return floor(*args)

        monkeypatch.setattr(ResidualForm, "__init__", counted_init)
        monkeypatch.setattr(samplers, "min_rss", counted_floor)
        return counts

    SCHEMES = [("RS", 1), ("IS", 0), ("RSIRS", 1), ("ISIRS", 0)]

    @pytest.mark.parametrize(
        "signed, method, floors",
        [(False, *scheme) for scheme in SCHEMES] + [(True, *scheme) for scheme in SCHEMES],
        ids=[f"{m}-{f}" for m, f in SCHEMES] + [f"signed-{m}-{f}" for m, f in SCHEMES],
    )
    def test_built_once(self, counts, signed, method, floors):
        # One form per solve, built from the K-column design even when signed,
        # and the RS floor taken only by the schemes that start with RS.
        cfg = config(method, sample_count=200)
        if signed:
            cfg = dataclasses.replace(cfg, prior=uniform_prior(2 * len(PAPER_THETA)))
            assert solve_signed(paper_like(100), cfg).shape == (len(PAPER_THETA),)
        else:
            report = solve(paper_like(100), cfg)
            rounds = 1 if method in ("RS", "IS") else 4
            assert len(report.diagnostics.ess_per_round) == rounds
        assert counts == {"builds": 1, "floors": floors, "columns": [len(PAPER_THETA)]}

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

    def test_floor_survives_a_failed_barrier(self, monkeypatch):
        # The Frank-Wolfe certificate holds at any point, so a barrier that
        # stops on its first iterate still yields a valid, looser floor.
        def failing(gram, xty, yty, budget, params, trace):
            trace.append(np.full(gram.shape[0], budget / (2.0 * gram.shape[0])))
            raise BalsonError("newton failure")

        data = paper_like(100)
        form = ResidualForm(design_matrix(data.inputs, 5), data.targets)
        tight = samplers.min_rss(form, 1.0)
        monkeypatch.setattr(samplers, "_barrier_qp", failing)
        loose = samplers.min_rss(form, 1.0)
        points = np.vstack([np.eye(5), np.random.default_rng(0).dirichlet(np.ones(5), 500)])
        assert loose <= tight <= form.rss(points).min()


class TestProposals:
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


class TestOverflowingBasis:
    def test_schemes_raise_non_finite(self):
        # The RS floor still certifies from the barrier's first iterate, and
        # every scheme then names the non-finite residual.
        xs = np.linspace(0.0, 1.0, 20)
        xs[3] = 1e100
        data = Dataset(xs, np.ones(20))
        for method in ("RS", "IS", "RSIRS", "ISIRS"):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(BalsonError, match="non-finite residual") as info:
                    solve(data, config(method, sample_count=MAX_PROPOSALS))
            # The failed pass released its workspace.
            assert large_arrays(info.value, MAX_PROPOSALS) == []


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
