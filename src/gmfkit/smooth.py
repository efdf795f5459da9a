"""Smoothed solver for min_X f(X) + p(X) with a weighted nuclear norm p.

The nonsmooth problem is lifted to min_{X, V>0} f(X) + phi(X, V) + <U, V>,
which is jointly smooth on the open set V > 0.  With no equality
constraint phi(X, V) = tr(X^T V^{-1} X)/2.  The solver follows the
log-det barrier path in (X, V): each stage minimizes the barriered
objective with a quasi-Newton method through the factorization
V = C C^T, the barrier weight is driven to zero geometrically, and a
final exact linear solve in X polishes the answer.
An accelerated proximal-gradient reference solver validates results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gmf import ProblemData
from .hset import Linear
from .infproj import InfProjProblem, eval_p
from .numlin import min_eig, psd_sqrt, sym


@dataclass(frozen=True)
class FitSpec:
    """Quadratic data fit f(X) = |A_op vec(X) - b|^2 / 2.

    A_op acts on the column-major vectorization of the n x m variable;
    an empty A_op (0 rows) encodes f = 0."""

    A_op: np.ndarray
    b: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        A_op = np.atleast_2d(np.asarray(self.A_op, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if A_op.size and A_op.shape[1] != self.n * self.m:
            raise ValueError("A_op must have n*m columns")
        if A_op.shape[0] != b.size:
            raise ValueError("A_op rows and target length differ")
        object.__setattr__(self, "A_op", A_op)
        object.__setattr__(self, "b", b)

    def value_and_grad(self, X: np.ndarray):
        """f(X) and its gradient A_op^T r as an n x m matrix, for the
        residual r = A_op vec(X) - b."""
        if not self.A_op.size:
            return 0.0, np.zeros((self.n, self.m))
        r = self.A_op @ X.ravel(order="F") - self.b
        return 0.5 * float(r @ r), (self.A_op.T @ r).reshape((self.n, self.m), order="F")

    @staticmethod
    def from_mask(mask: np.ndarray, target: np.ndarray) -> "FitSpec":
        """Matrix-completion fit: observe the True entries of mask."""
        mask = np.asarray(mask, dtype=bool)
        n, m = mask.shape
        idx = np.flatnonzero(mask.ravel(order="F"))
        A_op = np.zeros((idx.size, n * m))
        A_op[np.arange(idx.size), idx] = 1.0
        b = np.asarray(target, dtype=float).ravel(order="F")[idx]
        return FitSpec(A_op, b, n, m)


@dataclass
class SolveTrace:
    """Iteration log: (objective, gradient norm, min eigenvalue of V)."""

    iterates: list = field(default_factory=list)
    final_X: np.ndarray | None = None
    final_V: np.ndarray | None = None
    status: str = "IterCap"


def _phi_unconstrained(X: np.ndarray, V: np.ndarray) -> float:
    return 0.5 * float(np.sum(X * np.linalg.solve(V, X)))


def _objective(fit: FitSpec, Ubar: np.ndarray, X: np.ndarray, V: np.ndarray) -> float:
    return fit.value_and_grad(X)[0] + _phi_unconstrained(X, V) + float(np.sum(Ubar * V))


def _solve_x_block(fit: FitSpec, V: np.ndarray) -> np.ndarray:
    """Exact minimizer of f(X) + phi(X, V) for fixed V > 0.

    Substituting X = V^{1/2} Z turns the quadratic into
    |G z - b|^2 / 2 + |z|^2 / 2 with G = A_op (I (x) V^{1/2}), whose
    normal system stays well conditioned as V approaches singularity."""
    n, m = fit.n, fit.m
    R = psd_sqrt(V)
    if not fit.A_op.size:
        return np.zeros((n, m))
    Gk = np.kron(np.eye(m), R)
    G = fit.A_op @ Gk
    z = np.linalg.solve(G.T @ G + np.eye(n * m), G.T @ fit.b)
    return (Gk @ z).reshape((n, m), order="F")


def solve_smooth(
    fit: FitSpec, pd: ProblemData, Ubar: np.ndarray, max_iter: int = 3000
) -> SolveTrace:
    """Minimize f(X) + phi(X, V) + <U, V> over X and V > 0.

    Path-following on the log-det barrier: from X = 0, V = I and for a
    barrier weight mu decreasing to 1e-12, minimize F(X, V) - mu log det V
    with warm-started quasi-Newton stages.  The change of variables
    V = C C^T, X = C Z keeps iterates in the strict interior and turns
    the fractional term tr(X^T V^{-1} X)/2 into |Z|^2/2, so the stage
    objectives stay well conditioned even as V loses rank along the
    path.  The incumbent after each stage is monotone in the true
    objective; a final exact X solve polishes the answer.  max_iter caps
    each barrier stage; the positive-definiteness test on Ubar uses pd's
    tolerances."""
    if np.any(pd.A):
        raise ValueError("solver handles the unconstrained case (A = 0) only")
    n, m = fit.n, fit.m
    if (pd.n, pd.m) != (n, m):
        raise ValueError("fit and problem dimensions differ")
    Ubar = sym(np.asarray(Ubar, dtype=float))
    if min_eig(Ubar) <= pd.tol.psd_abs * (1.0 + np.linalg.norm(Ubar)):
        raise ValueError("Ubar must be positive definite")

    import scipy.optimize

    def split(z):
        Z = z[: n * m].reshape((n, m), order="F")
        C = z[n * m :].reshape((n, n))
        return Z, C

    def barrier_obj(z, mu):
        Z, C = split(z)
        fval, Gf = fit.value_and_grad(C @ Z)
        F = fval + 0.5 * float(np.sum(Z * Z)) + float(np.sum(Ubar * (C @ C.T)))
        GZ = C.T @ Gf + Z
        GC = Gf @ Z.T + 2.0 * Ubar @ C
        sign, logdet = np.linalg.slogdet(C @ C.T)
        if sign <= 0:
            return 1e15, np.zeros_like(z)
        F -= mu * logdet
        GC -= 2.0 * mu * np.linalg.inv(C).T
        return F, np.concatenate([GZ.ravel(order="F"), GC.ravel()])

    def true_grad_norm(X, V):
        Vi = np.linalg.inv(V)
        ViX = Vi @ X
        GX = fit.value_and_grad(X)[1] + ViX
        GV = -0.5 * ViX @ ViX.T + Ubar
        return float(np.sqrt(np.linalg.norm(GX) ** 2 + np.linalg.norm(GV) ** 2))

    trace = SolveTrace()
    X, V = np.zeros((n, m)), np.eye(n)
    F = _objective(fit, Ubar, X, V)
    trace.iterates.append((F, true_grad_norm(X, V), min_eig(V)))
    z = np.concatenate([np.zeros(n * m), np.eye(n).ravel()])  # Z = 0, C = I
    mu, mu_final = 1e-1 * (1.0 + abs(F)), 1e-12
    while True:
        res = scipy.optimize.minimize(
            barrier_obj,
            z,
            args=(mu,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "ftol": 0.0, "gtol": 1e-14},
        )
        Z_new, C = split(res.x)
        X_new = C @ Z_new
        V_new = sym(C @ C.T)
        # evaluate through the factors; solving with a nearly singular
        # V would pollute the incumbent comparison
        F_new = barrier_obj(res.x, 0.0)[0]
        if F_new <= F:
            X, V, F = X_new, V_new, F_new
            z = res.x
        trace.iterates.append((F, true_grad_norm(X, V), min_eig(V)))
        if mu <= mu_final:
            break
        mu = max(mu * 0.1, mu_final)
    X_new = _solve_x_block(fit, V)
    F_new = _objective(fit, Ubar, X_new, V)
    if F_new <= F:
        X, F = X_new, F_new
        trace.iterates.append((F, true_grad_norm(X, V), min_eig(V)))
    trace.final_X, trace.final_V = X, V
    if not np.all(np.isfinite(X)):
        trace.status = "Diverged"
    else:
        trace.status = "Converged"
    return trace


def solve_prox_reference(
    fit: FitSpec,
    L: np.ndarray,
    lam: float,
    x0: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 20000,
) -> np.ndarray:
    """Accelerated proximal gradient on f(X) + lam * |X|_* (FISTA).

    The exact singular-value-thresholding prox requires L = I."""
    n, m = fit.n, fit.m
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if not np.allclose(L, np.eye(n), atol=1e-12):
        raise ValueError("reference supports identity weight only")
    if fit.A_op.size:
        lip = float(np.linalg.norm(fit.A_op, 2) ** 2)
    else:
        lip = 1.0
    step = 1.0 / max(lip, 1e-15)

    def prox(X, thr):
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        return U @ (np.maximum(s - thr, 0.0)[:, None] * Vt)

    X = np.zeros((n, m)) if x0 is None else np.atleast_2d(np.asarray(x0, dtype=float))
    Z = X.copy()
    t = 1.0
    for _ in range(max_iter):
        X_new = prox(Z - step * fit.value_and_grad(Z)[1], lam * step)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Z = X_new + ((t - 1.0) / t_new) * (X_new - X)
        delta = np.linalg.norm(X_new - X)
        X, t = X_new, t_new
        if delta <= tol * (1.0 + np.linalg.norm(X)):
            break
    return X


def objective_certificate(
    fit: FitSpec,
    Ubar: np.ndarray,
    X: np.ndarray,
    V: np.ndarray,
):
    """Lower-bound check F(X, V) >= f(X) + p(X), at the default tolerances.

    Returns (F_value, p_value, gap); the gap is nonnegative up to
    roundoff, and small exactly when V is near the inner minimizer."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = sym(np.asarray(V, dtype=float))
    Ubar = sym(np.asarray(Ubar, dtype=float))
    if min_eig(V) <= 0:
        raise ValueError("V must be positive definite")
    F = _objective(fit, Ubar, X, V)
    pd = ProblemData(np.zeros((1, fit.n)), np.zeros((1, fit.m)))
    pe = eval_p(InfProjProblem(pd, Linear(Ubar)), X)
    gap = F - (fit.value_and_grad(X)[0] + pe.value)
    return F, pe.value, gap
