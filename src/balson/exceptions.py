"""Error types raised by the solvers and samplers.

Everything numerical that can fail at runtime derives from
:class:`BalsonError` so callers (and the CLI) can map the whole family
onto a single failure path.
"""


class BalsonError(Exception):
    """Base class for numerical failures."""


class ModeUndefinedError(BalsonError):
    """No concentration exceeds 1, so the Dirichlet mode does not exist."""


class MomentMatchingError(BalsonError):
    """Every per-dimension concentration estimate was non-positive or non-finite."""


class RejectionBudgetError(BalsonError):
    """A rejection pass cannot accept enough samples within its proposal budget.

    Raised as soon as the proposals left cannot deliver the samples still
    needed (see ``balson.samplers._cannot_finish``). The message reads
    "{n} proposals yielded {a} acceptances (need {L})".
    """


class DegenerateWeightsError(BalsonError):
    """Importance weights collapsed onto a single sample (ess <= 1)."""


class DegenerateStatisticError(BalsonError):
    """A statistic (t-test denominator, sparsity norm) is undefined on this input."""
