"""Closed-form oracles that the timed calls are checked against.

Each oracle uses only numpy and the singular values of its argument,
never gmfkit, so an error in gmfkit cannot cancel against the oracle.
With A = 0 and h the indicator of a spectral set S, both
p(X) = inf_V tr(X^T V^+ X)/2 + delta_S(V) and the Gram function
Phi(Y) = sup_{V in S, V >= 0} <V, YY^T>/2 depend only on singular values
(Jalali, Fazel & Xiao, "Variational Gram functions", SIAM J. Optim. 2017).
"""

from __future__ import annotations

import numpy as np


class OracleError(Exception):
    """An oracle failed its own consistency check: the run cannot judge."""


def svals(X: np.ndarray) -> np.ndarray:
    return np.linalg.svd(np.atleast_2d(X), compute_uv=False)


def rel_err(got: float, want: float) -> float:
    """|got - want| / (1 + |want|), the error scale gmfkit's own checks use."""
    if got == want:  # equal infinities included
        return 0.0
    return abs(got - want) / (1.0 + abs(want))


# p(X) for indicator h, A = 0


def p_spectral_box01(s: np.ndarray) -> float:
    """S = {0 <= V <= I}: V = I is optimal, p = |X|_F^2 / 2."""
    return 0.5 * float(np.sum(s**2))


def p_trace_ball(s: np.ndarray, r: float) -> float:
    """S = {V >= 0, tr V <= r}: p = |X|_*^2 / (2r)."""
    return float(np.sum(s)) ** 2 / (2.0 * r)


def fantope_weights(s: np.ndarray, k: int) -> np.ndarray:
    """Eigenvalues v of the optimal V for S = {0 <= V <= I, tr V <= k}.

    The KKT conditions of min sum s_i^2 / (2 v_i) over 0 <= v <= 1,
    sum v <= k give v_i = min(1, c s_i) for one scalar c >= 0 that makes
    the trace budget tight (or every nonzero s_i gets v_i = 1 when at
    most k of them are nonzero).  The root c is found exactly by trying
    each count j of capped entries in turn."""
    s = np.sort(np.asarray(s, dtype=float))[::-1]
    s = s[s > 0.0]
    if s.size <= k:
        return np.ones(s.size)
    for j in range(k):
        c = (k - j) / float(np.sum(s[j:]))
        if c * s[j] <= 1.0 and (j == 0 or c * s[j - 1] >= 1.0):
            v = np.minimum(1.0, c * s)
            if abs(float(np.sum(v)) - k) > 1e-12 * k:
                raise OracleError(f"Fantope weights sum to {np.sum(v)}, not {k}")
            return v
    raise OracleError("no Fantope KKT root")  # unreachable for k < len(s)


def p_fantope(s: np.ndarray, k: int) -> float:
    s = np.sort(np.asarray(s, dtype=float))[::-1]
    s = s[s > 0.0]
    if s.size == 0:
        return 0.0
    v = fantope_weights(s, k)
    return 0.5 * float(np.sum(s**2 / v))


# Phi(Y): the Gram function is a support function of S on YY^T


def phi_spectral_box01(s: np.ndarray) -> float:
    return 0.5 * float(np.sum(s**2))


def phi_trace_ball(s: np.ndarray, r: float) -> float:
    return 0.5 * r * float(np.max(s, initial=0.0)) ** 2


def phi_fantope(s: np.ndarray, k: int) -> float:
    s = np.sort(np.asarray(s, dtype=float))[::-1]
    return 0.5 * float(np.sum(s[:k] ** 2))


def weighted_nuclear(L: np.ndarray, X: np.ndarray) -> float:
    """p(X) for h = <U, .> with U = L L^T / 2 and A = 0: |L^T X|_*."""
    return float(np.sum(svals(L.T @ X)))
