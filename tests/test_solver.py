"""The solver's per-solve residual problem and what a failed solve leaves reachable."""

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
    uniform_prior,
)
from balson import samplers
from balson.bench import PAPER_THETA
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
