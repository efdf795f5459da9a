"""The generalized matrix-fractional function.

phi(X, V) is the support function of the graph of Y -> -YY^T/2 over the
affine manifold {Y : AY = B}.  Writing Y = Y0 + N Z over a basis N of
ker A turns it into an unconstrained concave quadratic in Z with Hessian
H = N^T V N.  On the interior of the cone K_A of matrices positive
semidefinite on ker A, H is positive definite: one Cholesky
factorization of H - psd_abs I certifies that, and one linear solve
gives the value and the maximizer.  Only off the interior does one
eigendecomposition of H decide the domain: V must lie in K_A, and X in
the matching range (eval_gmf).  The pseudoinverse of the bordered
matrix M(V) = [[V, A^T], [A, 0]] gives the same values by an
independent route and serves as the oracle (eval_gmf_oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numlin import DEFAULT_TOL, Tolerances, _rect, lapack, max_eig, min_eig, sym


@dataclass(frozen=True, eq=False)
class ProblemData:
    """The pair (A, B) with rge B contained in rge A, plus cached helpers."""

    A: np.ndarray
    B: np.ndarray
    tol: Tolerances = DEFAULT_TOL
    P: np.ndarray = field(init=False, repr=False)
    N: np.ndarray = field(init=False, repr=False)
    Y0: np.ndarray = field(init=False, repr=False)
    A_pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if A.shape[0] != B.shape[0]:
            raise ValueError("A and B must have the same number of rows")
        if not np.isfinite(A).all() or not np.isfinite(B).all():
            raise ValueError("A and B must be finite")
        # one full SVD A = U diag(s) V^T gives r = #{s > rank_rel s[0]} = rank A,
        # N = V's last n - r columns and A^+ = V_r diag(1/s_r) U_r^T; A^+ gives
        # the range test, the projector I - A^+ A onto ker A, Y0 = A^+ B and
        # eval_gmf's multiplier.  At A = 0 (r = 0) N = I is set, not read off V
        n = A.shape[1]
        U, s, Vt = np.linalg.svd(A)
        r = int((s > self.tol.rank_rel * s.max(initial=0.0)).sum())
        N = Vt[r:].T.copy() if r else np.eye(n)
        Ap = (Vt[:r].T * (1.0 / s[:r])) @ U[:, :r].T
        Y0 = Ap @ B
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if not self.solves(Y0):
            raise ValueError("rge B must be contained in rge A")
        P = np.eye(n) - Ap @ A
        object.__setattr__(self, "P", 0.5 * (P + P.T))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "Y0", Y0)
        object.__setattr__(self, "A_pinv", Ap)

    def solves(self, Y: np.ndarray) -> bool:
        """Whether AY = B, within feas_abs (1 + |B|)."""
        return np.linalg.norm(self.A @ Y - self.B) <= self.tol.feas_abs * (1.0 + np.linalg.norm(self.B))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def ell(self) -> int:
        return self.A.shape[0]

    @property
    def unconstrained(self) -> bool:
        """A = 0: N = I and K_A is the PSD cone."""
        return self.N.shape[1] == self.n

    @property
    def ker_trivial(self) -> bool:
        """ker A = {0}: N has no columns and K_A is all of S^n."""
        return self.N.shape[1] == 0


@dataclass
class GmfEval:
    """Value of phi with the attaining Y and equality multiplier when finite.

    boundary: N^T V N has an eigenvalue below psd_abs while V lies in
    K_A.  With the value it tells the four cases apart: interior (finite,
    False), on the boundary of K_A (finite, True), off the range of a
    boundary V (+inf, True) and outside K_A (+inf, False)."""

    value: float
    witness_Y: np.ndarray | None = None
    witness_multiplier: np.ndarray | None = None
    boundary: bool = False


def bordered_matrix(pd: ProblemData, V: np.ndarray) -> np.ndarray:
    """M(V) = [[V, A^T], [A, 0]]."""
    V = sym(V, pd.tol, pd.n)
    return np.block([[V, pd.A.T], [pd.A, np.zeros((pd.ell, pd.ell))]])


def in_KA(pd: ProblemData, V: np.ndarray) -> bool:
    """V positive semidefinite on ker A."""
    return _in_KA(pd, sym(V, pd.tol, pd.n))


def _in_KA(pd: ProblemData, V: np.ndarray) -> bool:
    return min_eig(pd.N.T @ V @ pd.N) >= -pd.tol.psd_abs  # +inf when ker A = {0}


def in_int_KA(pd: ProblemData, V: np.ndarray) -> bool:
    """V positive definite on ker A (strictly, by psd_abs)."""
    V = sym(V, pd.tol, pd.n)
    return min_eig(pd.N.T @ V @ pd.N) >= pd.tol.psd_abs


def in_KA_polar(pd: ProblemData, W: np.ndarray) -> bool:
    """W in the polar cone: W = PWP and W negative semidefinite."""
    return _in_KA_polar(pd, sym(W, pd.tol, pd.n))


def _in_KA_polar(pd: ProblemData, W: np.ndarray) -> bool:
    tol = pd.tol
    if np.linalg.norm(W - pd.P @ W @ pd.P) > tol.feas_abs * (1.0 + np.linalg.norm(W)):
        return False
    return max_eig(W) <= tol.psd_abs


def in_omega(pd: ProblemData, Y: np.ndarray, W: np.ndarray) -> bool:
    """(Y, W) in the closed convex hull of the graph set:
    AY = B and YY^T/2 + W in the polar of K_A."""
    Y = _rect(Y, (pd.n, pd.m), "Y")
    G = 0.5 * Y @ Y.T + sym(W, pd.tol, pd.n)
    if not pd.solves(Y):
        return False
    return _in_KA_polar(pd, 0.5 * (G + G.T))


def eval_gmf(pd: ProblemData, X: np.ndarray, V: np.ndarray) -> GmfEval:
    """phi(X, V) by the kernel reduction; +inf outside the domain.

    Over Y = Y0 + N Z the objective <X, Y> - <YY^T, V>/2 reads
    c0 + <R, Z> - <Z, H Z>/2 with H = N^T V N, R = N^T (X - V Y0) and
    c0 = <X, Y0> - <Y0, V Y0>/2.  Where one Cholesky factorization of
    H - psd_abs I succeeds, lam_min(H) >= psd_abs, V lies in the interior
    of K_A, and one LU solve of H Z = R gives the value c0 + <R, Z>/2,
    attained at Y = Y0 + N Z.  Everywhere else one eigendecomposition
    H = Q diag(lam) Q^T decides: V lies in K_A iff lam_min >= -psd_abs.
    One absolute floor splits the spectrum: eigenvalues below psd_abs
    count as zero and are never inverted, so V lies on the boundary of
    K_A iff some eigenvalue does.  The value is finite iff Q^T R vanishes
    on them (within feas_abs), and then it is c0 + sum_i |q_i^T R|^2 /
    (2 lam_i) over the others, attained at Y = Y0 + N Q diag(1/lam) Q^T R.
    The multiplier mu = (A^+)^T (X - V Y) satisfies V Y + A^T mu = X.
    When ker A = {0}, Y = Y0 and no factorization is needed.  +inf is a
    domain verdict only: where the arithmetic overflows on finite X and
    V, it raises ValueError instead."""
    return _eval_gmf(pd, _rect(X, (pd.n, pd.m)), sym(V, pd.tol, pd.n))


_OVERFLOW = "phi(X, V) overflows: X and V are finite but the value is not"


def _finite(x: float) -> float:
    """x, a number computed from finite data, or ValueError(_OVERFLOW)
    where it overflowed: +inf and nan are then no verdict on the domain."""
    if not math.isfinite(x):
        raise ValueError(_OVERFLOW)
    return x


def _interior_solve(H: np.ndarray, R: np.ndarray, psd_abs: float) -> np.ndarray | None:
    """H^{-1} R where a Cholesky factorization of H - psd_abs I, which reads
    H's lower triangle as eigh does, certifies lam_min(H) >= psd_abs; None
    where it fails.  The solve is an LU, whose rounding keeps phi(1, 2) at
    exactly 1/4 where the Cholesky factor's triangular solves do not."""
    k = H.shape[0]
    Hs = H.copy()
    Hs.flat[:: k + 1] -= psd_abs
    if lapack().dpotrf(Hs.T, overwrite_a=1, clean=0)[1]:
        return None
    return lapack().dgesv(H.T, R, overwrite_a=1)[2]


def _eval_gmf(pd: ProblemData, X: np.ndarray, V: np.ndarray) -> GmfEval:
    """eval_gmf on a trusted X and symmetric V."""
    tol = pd.tol
    N, Y = pd.N, pd.Y0
    VY = V @ Y
    value = float(np.vdot(Y, X - 0.5 * VY))
    boundary = False
    if N.shape[1]:
        VN = V @ N
        H = N.T @ VN
        R = N.T @ (X - VY)
        Z = _interior_solve(H, R, tol.psd_abs)
        if Z is not None:
            value += 0.5 * float(np.vdot(R, Z))
        else:
            lam, Q = np.linalg.eigh(H)
            if not lam[0] >= -tol.psd_abs:
                return GmfEval(np.inf)
            C = Q.T @ R
            live = lam >= tol.psd_abs
            # the range condition, with the slack of the bordered system's residual
            slack = tol.feas_abs * (1.0 + np.hypot(np.linalg.norm(X), np.linalg.norm(pd.B)))
            if not _finite(np.linalg.norm(C[~live])) <= slack:
                return GmfEval(np.inf, boundary=True)
            W = C[live] / lam[live, None]
            value += 0.5 * float(np.sum(C[live] * W))
            Z = Q[:, live] @ W
            boundary = not lam[0] >= tol.psd_abs
        Y = Y + N @ Z
        VY = VY + VN @ Z
    return GmfEval(
        _finite(value),
        witness_Y=Y,
        witness_multiplier=pd.A_pinv.T @ (X - VY),
        boundary=boundary,
    )


def eval_gmf_oracle(pd: ProblemData, X: np.ndarray, V: np.ndarray) -> GmfEval:
    """phi(X, V) through the bordered matrix, independently of eval_gmf.

    The maximizer Y and multiplier mu solve the KKT system
    M(V) [Y; mu] = [X; B] with M(V) = [[V, A^T], [A, 0]], so
    phi = <[X; B], M(V)^+ [X; B]>/2 from one SVD of the (n + l)^2 matrix,
    refined twice with the residual [X; B] - M(V) Z and the final inner
    product in np.longdouble, so that the oracle is more accurate than
    eval_gmf.  Requires V positive definite on ker A."""
    X = _rect(X, (pd.n, pd.m))
    M = bordered_matrix(pd, V)  # the one check of V, which is M's corner
    if not min_eig(pd.N.T @ M[: pd.n, : pd.n] @ pd.N) >= pd.tol.psd_abs:
        raise ValueError("oracle requires interior point")
    rhs = np.vstack([X, pd.B])
    M_pinv = np.linalg.pinv(M, rcond=pd.tol.rank_rel)
    Z = M_pinv @ rhs
    for _ in range(2):
        Z = Z + M_pinv @ (rhs.astype(np.longdouble) - M.astype(np.longdouble) @ Z).astype(float)
    return GmfEval(
        float(0.5 * np.sum(rhs.astype(np.longdouble) * Z)), witness_Y=Z[: pd.n], witness_multiplier=Z[pd.n :]
    )


def grad_gmf(pd: ProblemData, X: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of phi at an interior point: (Y, -YY^T/2) for the maximizer Y."""
    ev = eval_gmf(pd, X, V)
    if ev.boundary or not math.isfinite(ev.value):
        raise ValueError("gradient undefined: V not in the interior of K_A")
    Y = ev.witness_Y
    return Y, -0.5 * Y @ Y.T
