"""The solver's per-solve residual problem, its RS floor, the signed entry point,
and what a failed solve leaves reachable."""

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
from balson.exceptions import BalsonError
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


def large_arrays(err, rows):
    """(frame, name) of every traceback local that is, or is a ResidualForm holding,
    an ndarray with at least ``rows`` rows; follows the chain of causes."""
    found = []
    while err is not None:
        tb = err.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            for name, value in frame.f_locals.items():
                held = vars(value).items() if isinstance(value, ResidualForm) else [(name, value)]
                for attr, array in held:
                    if isinstance(array, np.ndarray) and array.ndim > 0 and array.shape[0] >= rows:
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


class TestOneResidualProblemPerSolve:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"builds": 0, "floors": 0}
        init, floor = ResidualForm.__init__, samplers.min_rss

        def counted_init(self, *args):
            counts["builds"] += 1
            init(self, *args)

        def counted_floor(*args):
            counts["floors"] += 1
            return floor(*args)

        monkeypatch.setattr(ResidualForm, "__init__", counted_init)
        monkeypatch.setattr(samplers, "min_rss", counted_floor)
        return counts

    @pytest.mark.parametrize("method, floors", [("RS", 1), ("IS", 0), ("RSIRS", 1), ("ISIRS", 0)])
    def test_built_once(self, counts, method, floors):
        report = solve(paper_like(100), config(method, sample_count=200))
        assert counts == {"builds": 1, "floors": floors}
        rounds = 1 if method in ("RS", "IS") else 4
        assert len(report.diagnostics.ess_per_round) == rounds

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
