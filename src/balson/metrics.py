"""Evaluation metrics (MSE, normalized L1/L2 sparsity) and the paired t-test.

The t-test's p-value is 2 * ``scipy.special.stdtr(n - 1, -|t|)``, the tail
``scipy.stats.ttest_rel`` uses; importing ``scipy.stats`` would add about
39 MB of peak memory and 0.5 s to ``import balson`` on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import stdtr

from .exceptions import DegenerateStatisticError


def mse(actual, fitted) -> float:
    """Mean squared difference (1/N) sum (y_i - yhat_i)^2."""
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(fitted, dtype=np.float64)
    if a.shape != f.shape or a.ndim != 1:
        raise ValueError("actual and fitted must be 1-D and the same length")
    if a.shape[0] == 0:
        raise ValueError("mse undefined on empty input")
    d = a - f
    return float(d @ d) / a.shape[0]


def sparsity(theta_hat) -> float:
    """Normalized L1/L2 ratio: (sqrt(K) - |t|_1 / |t|_2) / (sqrt(K) - 1).

    1 for a one-hot vector, 0 for an all-equal vector; scale invariant.
    """
    t = np.asarray(theta_hat, dtype=np.float64)
    if t.ndim != 1 or t.shape[0] < 2:
        raise ValueError("sparsity needs a 1-D vector with K >= 2")
    l1 = float(np.abs(t).sum())
    l2 = float(np.sqrt(t @ t))
    if l2 == 0.0:
        raise DegenerateStatisticError("sparsity undefined for the all-zero vector")
    root_k = math.sqrt(t.shape[0])
    return (root_k - l1 / l2) / (root_k - 1.0)


def paired_t_test(a, b) -> tuple[float, float]:
    """Two-sided paired t-test on per-index differences a_i - b_i.

    Uses the (n-1)-denominator standard deviation; returns (t, p).
    Raises :class:`DegenerateStatisticError` when the differences have
    zero variance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-D and the same length")
    n = a.shape[0]
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateStatisticError("degenerate t-test: zero-variance differences")
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return t, p
