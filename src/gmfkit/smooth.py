"""Smoothed solver for min_X f(X) + p(X) with a weighted nuclear norm p.

The nonsmooth problem is lifted to min_{X, V>0} f(X) + phi(X, V) + <U, V>,
which is jointly smooth on the open set V > 0.  With no equality
constraint phi(X, V) = tr(X^T V^{-1} X)/2.  The solver follows the
log-det barrier path in (X, V): each stage minimizes the barriered
objective with a quasi-Newton method through the factorization
V = C C^T, and the barrier weight is driven to zero geometrically.
Each evaluation of the barriered objective takes one LU factorization
of C: log det V = 2 log|det C| and the barrier's gradient both come
from it, and V itself is never formed.  An accelerated
proximal-gradient reference solver validates results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .gmf import ProblemData
from .hset import Linear
from .infproj import InfProjProblem, _eval_p
from .numlin import _rect, min_eig, sv, sym


@dataclass(frozen=True, eq=False)
class FitSpec:
    """Quadratic data fit f(X) = |A_op vec(X) - b|^2 / 2.

    A_op acts on the column-major vectorization of the n x m variable;
    an empty A_op (0 rows) encodes f = 0.  A row selection (each row a
    single 1.0, in distinct columns), as `from_mask` and identity fits
    build, is applied by index: the fit reads the selected entries of X
    and scatters the residual into the gradient, which for finite X
    gives the dense product's bits at O(nm) instead of O(rows nm)."""

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
        for name, v in (("A_op", A_op), ("b", b)):
            if not np.isfinite(v).all():  # from_mask reads only the observed targets
                raise ValueError(f"FitSpec {name} must be finite")
        object.__setattr__(self, "A_op", A_op)
        object.__setattr__(self, "b", b)

    @cached_property
    def _entries(self):
        """The row-major flat index into X of each entry of vec(X) that
        A_op selects, or None when A_op is not a row selection.  Found on
        first use, not at construction: the test reads every entry of
        A_op, which building a fit from a mask does not."""
        A_op = self.A_op
        cols = A_op.argmax(axis=1)
        rows = np.arange(A_op.shape[0])
        if (
            np.count_nonzero(A_op) == rows.size
            and np.all(A_op[rows, cols] == 1.0)
            and np.unique(cols).size == cols.size
        ):
            shape = (self.n, self.m)
            return np.ravel_multi_index(np.unravel_index(cols, shape, order="F"), shape)
        return None

    def value_and_grad(self, X: np.ndarray):
        """f(X) and its gradient A_op^T r as an n x m matrix, for the
        residual r = A_op vec(X) - b."""
        if not self.A_op.size:
            return 0.0, np.zeros((self.n, self.m))
        if self._entries is None:
            r = self.A_op @ X.ravel(order="F") - self.b
            return 0.5 * float(r @ r), (self.A_op.T @ r).reshape((self.n, self.m), order="F")
        r = X.reshape(-1)[self._entries] - self.b
        G = np.zeros(self.n * self.m)
        G[self._entries] = r
        return 0.5 * float(r @ r), G.reshape((self.n, self.m))

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


class StageLog(NamedTuple):
    """One barrier stage: its weight mu, the L-BFGS-B gradient tolerance,
    and the iterations, objective evaluations and termination message
    that L-BFGS-B reported."""

    mu: float
    gtol: float
    nit: int
    nfev: int
    message: str


@dataclass
class SolveTrace:
    """Iteration log: (objective, min eigenvalue of V) at the start and
    after each stage; `stages` holds one StageLog per stage, and
    `dual_gap` is P(X) - D(r) >= 0 at the final X (see `_dual_gap`), NaN
    when X is not finite."""

    iterates: list = field(default_factory=list)
    final_X: np.ndarray | None = None
    final_V: np.ndarray | None = None
    status: str = "IterCap"
    stages: list = field(default_factory=list)
    dual_gap: float = np.nan


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
    path.  Each evaluation factors C once, by LU (see `_barrier`):
    log det V = 2 log|det C| is read off its diagonal and the gradient's
    C^{-T} comes from the same factors.  Where C has a zero pivot or the
    value is not finite, the evaluation returns the wall (1e15, 0), so
    the line search backs off and the incumbent check (at mu = 0)
    rejects the point.  mu starts at 0.1 (1 + |F(0, I)|) and shrinks by
    0.01 per stage.  A stage above mu = 1e-12 is solved only as far as
    its mu needs: L-BFGS-B stops once the projected gradient's largest
    entry is at most mu.  The last stage, at mu = 1e-12, runs with gtol
    1e-14 until it can make no more progress, so it sets the answer's
    accuracy.  The incumbent after each stage is monotone in the true
    objective, and the answer is the last incumbent (C Z, C C^T).
    max_iter caps each barrier stage; the status is "Diverged" if X is
    not finite, else "IterCap" if a stage stopped at the cap, else
    "Converged".  The positive-definiteness test on Ubar uses pd's
    tolerances."""
    if not pd.unconstrained:
        raise ValueError("solver handles the unconstrained case (A = 0) only")
    n, m = fit.n, fit.m
    if (pd.n, pd.m) != (n, m):
        raise ValueError("fit and problem dimensions differ")
    Ubar = sym(np.asarray(Ubar, dtype=float))
    if min_eig(Ubar) <= pd.tol.psd_abs:
        raise ValueError("Ubar must be positive definite")

    import scipy.optimize

    barrier_obj = partial(_barrier, fit, Ubar)
    trace = SolveTrace()
    X, V = np.zeros((n, m)), np.eye(n)
    z = np.concatenate([np.zeros(n * m), np.eye(n).ravel()])  # Z = 0, C = I
    F = barrier_obj(z, 0.0)[0]
    trace.iterates.append((F, min_eig(V)))
    mu, mu_final = 1e-1 * (1.0 + abs(F)), 1e-12
    capped = False
    while True:
        last = mu <= mu_final
        gtol = 1e-14 if last else mu
        res = scipy.optimize.minimize(
            barrier_obj,
            z,
            args=(mu,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "ftol": 0.0, "gtol": gtol},
        )
        trace.stages.append(StageLog(float(mu), gtol, int(res.nit), int(res.nfev), str(res.message)))
        capped |= res.status == 1  # iteration or evaluation limit
        Z_new, C = _split(res.x, n, m)
        X_new = C @ Z_new
        V_new = C @ C.T  # numpy forms C C^T exactly symmetric
        # evaluate through the factors; solving with a nearly singular
        # V would pollute the incumbent comparison
        F_new = barrier_obj(res.x, 0.0)[0]
        if F_new <= F:
            X, V, F = X_new, V_new, F_new
            z = res.x
        trace.iterates.append((F, min_eig(V)))
        if last:
            break
        mu = max(mu * 0.01, mu_final)
    trace.final_X, trace.final_V = X, V
    if not np.all(np.isfinite(X)):
        trace.status = "Diverged"
    else:
        trace.dual_gap = _dual_gap(fit, Ubar, X)
        trace.status = "IterCap" if capped else "Converged"
    return trace


def _split(z: np.ndarray, n: int, m: int):
    """The views (Z, C) of the solver's variable z = (vec Z, rows of C)."""
    return z[: n * m].reshape((n, m), order="F"), z[n * m :].reshape((n, n))


def _barrier(fit: FitSpec, Ubar: np.ndarray, z: np.ndarray, mu: float):
    """The stage objective f(C Z) + |Z|^2/2 + <Ubar, C C^T> - mu log det(C C^T)
    and its gradient in z, from one LU factorization of C.

    log det(C C^T) = 2 log|det C| is read off the LU's diagonal, and
    dgetri turns the same factors into the inverse the barrier's gradient
    -2 mu C^{-T} needs.  The factored matrix is C^T, the column-major view
    of C's row-major storage: det C^T = det C, and its inverse is C^{-T}
    itself.  C C^T is never formed: <Ubar, C C^T> = <Ubar C, C> reuses
    the Ubar C of the gradient.  At a zero pivot (C singular) or where
    the value is not finite (a NaN or inf in z among them) it returns the
    wall (1e15, 0), which L-BFGS-B's line search backs away from."""
    import scipy.linalg.lapack as lapack  # lazily: gmfkit.cli imports this module

    n, m = fit.n, fit.m
    Z, C = _split(z, n, m)
    lu, piv, info = lapack.dgetrf(C.T)
    if info != 0:
        return 1e15, np.zeros_like(z)
    fval, Gf = fit.value_and_grad(C @ Z)
    UC = Ubar @ C
    zZ = z[: n * m]
    F = fval + 0.5 * float(zZ @ zZ) + float(np.vdot(UC, C))
    F -= 2.0 * mu * float(np.log(np.abs(lu.diagonal())).sum())
    if not math.isfinite(F):
        return 1e15, np.zeros_like(z)
    g = np.empty_like(z)
    GZ, GC = _split(g, n, m)
    np.matmul(C.T, Gf, out=GZ)
    GZ += Z
    np.matmul(Gf, Z.T, out=GC)
    GC += 2.0 * UC
    GC -= (2.0 * mu) * lapack.dgetri(lu, piv)[0]
    return F, g


def _dual_gap(fit: FitSpec, Ubar: np.ndarray, X: np.ndarray) -> float:
    """P(X) - D(r) >= 0 for P = f + p, with the residual r scaled into
    the dual feasible set.

    With Ubar = R R^T, p(X) = sqrt(2) |R^T X|_* and p* is the indicator
    of |R^{-1} Lam|_2 <= sqrt(2).  The Fenchel dual of f + p is
    D(r) = -|r|^2/2 - <b, r> over -A^T r in dom p*; the residual
    r0 = A vec(X) - b scaled by t = min(1, sqrt(2) / |R^{-1} A^T r0|_2)
    is feasible, and <b, r0> = <X, A^T r0> - |r0|^2 needs no more than
    f and its gradient at X.  The gap vanishes at the optimum, where
    -A^T r0 is a subgradient of p at X."""
    R = np.linalg.cholesky(Ubar)
    fval, G = fit.value_and_grad(X)
    pval = np.sqrt(2.0) * float(np.sum(sv(R.T @ X)))
    dual_norm = float(sv(np.linalg.solve(R, G))[0])
    t = 1.0 if dual_norm <= np.sqrt(2.0) else np.sqrt(2.0) / dual_norm
    dval = -t * t * fval - t * (float(np.sum(X * G)) - 2.0 * fval)
    return fval + pval - dval


def solve_prox_reference(fit: FitSpec, L: np.ndarray, lam: float) -> np.ndarray:
    """Accelerated proximal gradient on f(X) + lam * |X|_* (FISTA) from
    X = 0, until a step moves X by at most 1e-12 (1 + |X|) or after 20000
    steps.

    The exact singular-value-thresholding prox requires L = I.  The step
    is 1 / |A_op|_2^2, where |A_op|_2 = 1 for a nonempty row selection
    (orthonormal rows) and takes an SVD of A_op otherwise."""
    n, m = fit.n, fit.m
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if not np.allclose(L, np.eye(n), atol=1e-12):
        raise ValueError("reference supports identity weight only")
    lip = float(np.linalg.norm(fit.A_op, 2) ** 2) if fit.A_op.size and fit._entries is None else 1.0
    step = 1.0 / max(lip, 1e-15)

    def prox(X, thr):
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        return U @ (np.maximum(s - thr, 0.0)[:, None] * Vt)

    X = np.zeros((n, m))
    Z = X.copy()
    t = 1.0
    for _ in range(20000):
        X_new = prox(Z - step * fit.value_and_grad(Z)[1], lam * step)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Z = X_new + ((t - 1.0) / t_new) * (X_new - X)
        delta = np.linalg.norm(X_new - X)
        X, t = X_new, t_new
        if delta <= 1e-12 * (1.0 + np.linalg.norm(X)):
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
    X = _rect(X, (fit.n, fit.m))
    V = sym(V, n=fit.n)
    h = Linear(Ubar)  # the one check of Ubar
    if min_eig(V) <= 0:
        raise ValueError("V must be positive definite")
    f = fit.value_and_grad(X)[0]
    F = f + 0.5 * float(np.sum(X * np.linalg.solve(V, X))) + float(np.sum(h.U * V))  # phi = tr(X^T V^-1 X)/2
    pd = ProblemData(np.zeros((1, fit.n)), np.zeros((1, fit.m)))
    pe = _eval_p(InfProjProblem(pd, h), X)
    gap = F - (f + pe.value)
    return F, pe.value, gap
