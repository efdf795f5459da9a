"""The generalized matrix-fractional function.

phi(X, V) is the support function of the graph of Y -> -YY^T/2 over the
affine manifold {Y : AY = B}.  It has a closed form through the
pseudoinverse of the bordered matrix M(V) = [[V, A^T], [A, 0]], valid on
the cone K_A of matrices positive semidefinite on ker A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numlin import (
    DEFAULT_TOL,
    Tolerances,
    ker_basis,
    max_eig,
    min_eig,
    pinv,
    sym,
)


@dataclass(frozen=True)
class ProblemData:
    """The pair (A, B) with rge B contained in rge A, plus cached helpers."""

    A: np.ndarray
    B: np.ndarray
    tol: Tolerances = DEFAULT_TOL
    P: np.ndarray = field(init=False, repr=False)
    N: np.ndarray = field(init=False, repr=False)
    Y0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if A.shape[0] != B.shape[0]:
            raise ValueError("A and B must have the same number of rows")
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(B)):
            raise ValueError("A and B must be finite")
        # one pinv of A gives the range test (range_contains's residual and
        # slack), the projector I - A^+ A onto ker A and Y0 = A^+ B
        Ap = pinv(A, self.tol)
        Y0 = Ap @ B
        if np.linalg.norm(B - A @ Y0) > self.tol.feas_abs * (1.0 + np.linalg.norm(B)):
            raise ValueError("rge B must be contained in rge A")
        P = np.eye(A.shape[1]) - Ap @ A
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "P", 0.5 * (P + P.T))
        object.__setattr__(self, "N", ker_basis(A, self.tol))
        object.__setattr__(self, "Y0", Y0)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def ell(self) -> int:
        return self.A.shape[0]


@dataclass
class GmfEval:
    """Value of phi with the attaining Y and equality multiplier when finite."""

    value: float
    witness_Y: np.ndarray | None = None
    witness_multiplier: np.ndarray | None = None
    boundary: bool = False


def bordered_matrix(pd: ProblemData, V: np.ndarray) -> np.ndarray:
    V = sym(V, pd.tol)
    n, ell = pd.n, pd.ell
    M = np.zeros((n + ell, n + ell))
    M[:n, :n] = V
    M[:n, n:] = pd.A.T
    M[n:, :n] = pd.A
    return M


def in_KA(pd: ProblemData, V: np.ndarray, tol: Tolerances | None = None) -> bool:
    """V positive semidefinite on ker A."""
    tol = tol or pd.tol
    if pd.N.shape[1] == 0:
        return True
    V = sym(V, tol)
    return min_eig(pd.N.T @ V @ pd.N) >= -tol.psd_abs


def in_int_KA(pd: ProblemData, V: np.ndarray, tol: Tolerances | None = None) -> bool:
    """V positive definite on ker A (strictly, by psd_abs)."""
    tol = tol or pd.tol
    if pd.N.shape[1] == 0:
        return True
    V = sym(V, tol)
    return min_eig(pd.N.T @ V @ pd.N) >= tol.psd_abs


def in_KA_polar(pd: ProblemData, W: np.ndarray, tol: Tolerances | None = None) -> bool:
    """W in the polar cone: W = PWP and W negative semidefinite."""
    tol = tol or pd.tol
    W = sym(W, tol)
    scale = 1.0 + np.linalg.norm(W)
    if np.linalg.norm(W - pd.P @ W @ pd.P) > tol.feas_abs * scale:
        return False
    return max_eig(W) <= tol.psd_abs * scale


def in_omega(
    pd: ProblemData, Y: np.ndarray, W: np.ndarray, tol: Tolerances | None = None
) -> bool:
    """(Y, W) in the closed convex hull of the graph set:
    AY = B and YY^T/2 + W in the polar of K_A."""
    tol = tol or pd.tol
    Y = np.asarray(Y, dtype=float)
    if np.linalg.norm(pd.A @ Y - pd.B) > tol.feas_abs * (1.0 + np.linalg.norm(pd.B)):
        return False
    return in_KA_polar(pd, 0.5 * Y @ Y.T + sym(W, tol), tol)


def eval_gmf(
    pd: ProblemData, X: np.ndarray, V: np.ndarray, tol: Tolerances | None = None
) -> GmfEval:
    """Closed-form evaluation of phi(X, V); +inf outside the domain."""
    tol = tol or pd.tol
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape != (pd.n, pd.m):
        raise ValueError(f"X must be {pd.n}x{pd.m}, got {X.shape}")
    V = sym(V, tol)
    # one lambda_min on ker A decides both K_A (in_KA) and its interior
    lam = min_eig(pd.N.T @ V @ pd.N) if pd.N.shape[1] else np.inf
    if not lam >= -tol.psd_abs:
        return GmfEval(np.inf)
    M = bordered_matrix(pd, V)
    rhs = np.vstack([X, pd.B])
    Z = pinv(M, tol) @ rhs
    # the range condition, with range_contains's slack on the same residual
    if not np.linalg.norm(rhs - M @ Z) <= tol.feas_abs * (1.0 + np.linalg.norm(rhs)):
        return GmfEval(np.inf)
    value = 0.5 * float(np.sum(rhs * Z))
    return GmfEval(
        value,
        witness_Y=Z[: pd.n],
        witness_multiplier=Z[pd.n :],
        boundary=not lam >= tol.psd_abs,
    )


def eval_gmf_oracle(
    pd: ProblemData, X: np.ndarray, V: np.ndarray, tol: Tolerances | None = None
) -> GmfEval:
    """Direct maximization of <Y,X> - <YY^T,V>/2 over {AY = B}.

    Parameterizes Y = Y0 + N Z over the kernel and solves the resulting
    concave quadratic exactly.  Requires V positive definite on ker A.
    """
    tol = tol or pd.tol
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = sym(V, tol)
    if not in_int_KA(pd, V, tol):
        raise ValueError("oracle requires interior point")
    N, Y0 = pd.N, pd.Y0
    if N.shape[1] == 0:
        Y = Y0
    else:
        H = N.T @ V @ N
        Z = np.linalg.solve(H, N.T @ (X - V @ Y0))
        Y = Y0 + N @ Z
    value = float(np.sum(Y * X) - 0.5 * np.sum((Y @ Y.T) * V))
    return GmfEval(value, witness_Y=Y)


def grad_gmf(
    pd: ProblemData, X: np.ndarray, V: np.ndarray, tol: Tolerances | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of phi at an interior point: (Y, -YY^T/2) for the maximizer Y."""
    tol = tol or pd.tol
    if not in_int_KA(pd, V, tol):
        raise ValueError("gradient undefined: V not in the interior of K_A")
    ev = eval_gmf(pd, X, V, tol)
    if not np.isfinite(ev.value):
        raise ValueError("gradient undefined: point outside dom phi")
    Y = ev.witness_Y
    return Y, -0.5 * Y @ Y.T
