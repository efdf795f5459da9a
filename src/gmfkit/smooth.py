"""Smoothed solver for min_X f(X) + p(X) with a weighted nuclear norm p.

The nonsmooth problem is lifted to min_{X, V>0} f(X) + phi(X, V) + <U, V>,
which is jointly smooth on the open set V > 0.  With no equality
constraint phi(X, V) = tr(X^T V^{-1} X)/2.  The solver follows the
log-det barrier path in (X, V): each stage minimizes the barriered
objective with a quasi-Newton method through the factorization
V = C C^T, X = C Z, and the barrier weight is driven to zero
geometrically.  C is whitened by U: with U = R R^T and M = R^{-T}/sqrt(2)
the solver's variable is W = M^{-1} C, for which <U, C C^T> = |W|^2/2.
The stage objective f(C Z) + |Z|^2/2 + |W|^2/2 - mu log det(C C^T) then
puts the same unit curvature on both blocks, as the balanced
factorization |X|_* = min_{X = AB} (|A|^2 + |B|^2)/2 does, where the
unwhitened C grows to about |Z| / lam at the optimum.  Each evaluation
of the barriered objective takes one LU factorization of W:
log det V = 2 log|det M| + 2 log|det W| and the barrier's gradient both
come from it, and V itself is never formed.  The stages drive
L-BFGS-B's reverse-communication kernel, scipy's `setulb`, directly
(`_lbfgsb`), in the loop `scipy.optimize.minimize` runs but without its
per-evaluation wrapping.  An accelerated proximal-gradient reference
solver validates results.
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
from .numlin import _rect, lapack, min_eig, sv, sym


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
    path.  C is whitened by Ubar: Ubar = R R^T is factored once per
    solve, and the quasi-Newton variable is W in C = M W with
    M = R^{-T}/sqrt(2), which turns <Ubar, C C^T> into |W|^2/2.  Both
    blocks of the variable z = (Z, W) then carry the same unit
    curvature, so L-BFGS-B's scalar initial Hessian fits both, where in
    (Z, C) the block C grows to about |Z| / lam at the optimum.  Each
    evaluation factors W once, by LU (see `_barrier`): log det V =
    2 log|det M| + 2 log|det W| is read off its diagonal and the
    gradient's W^{-T} comes from the same factors.  Where W has a zero
    pivot or the value is not finite, the evaluation returns the wall
    (1e15, 0), so the line search backs off and the incumbent check (at
    mu = 0) rejects the point.  The start is C = I (W = sqrt(2) R^T).
    mu starts at 0.1 (1 + |F(0, I)|) and shrinks by 0.01 per stage.  Each
    stage runs L-BFGS-B on scipy's kernel directly (see `_lbfgsb`).  A
    stage above mu = 1e-12 is solved only as far as its mu needs:
    L-BFGS-B stops once the projected gradient's largest entry is at
    most mu.  The last stage, at mu = 1e-12, runs with gtol 1e-14 until
    it can make no more progress, so it sets the answer's accuracy.
    The incumbent after each stage is monotone in the true objective,
    and the answer is the last incumbent (C Z, C C^T).  max_iter >= 1
    caps each barrier stage.  The status is "Diverged" if X is not
    finite; else "Converged" if the dual gap certifies X,
    dual_gap <= conj_rel (1 + |P|) for P = f(X) + p(X); else "IterCap" if
    a stage stopped at the cap; else "Uncertified".  The
    positive-definiteness test on Ubar and conj_rel are pd's
    tolerances."""
    if not pd.unconstrained:
        raise ValueError("solver handles the unconstrained case (A = 0) only")
    n, m = fit.n, fit.m
    if (pd.n, pd.m) != (n, m):
        raise ValueError("fit and problem dimensions differ")
    Ubar = sym(np.asarray(Ubar, dtype=float))
    if min_eig(Ubar) <= pd.tol.psd_abs:
        raise ValueError("Ubar must be positive definite")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    wh = _whiten(Ubar)
    barrier_obj = partial(_barrier, fit, wh)
    trace = SolveTrace()
    X, V = np.zeros((n, m)), np.eye(n)
    z = np.concatenate([np.zeros(n * m), (math.sqrt(2.0) * wh.R.T).ravel()])  # Z = 0, C = I
    F = barrier_obj(z, 0.0)[0]
    trace.iterates.append((F, min_eig(V)))
    mu, mu_final = 1e-1 * (1.0 + abs(F)), 1e-12
    capped = False
    while True:
        last = mu <= mu_final
        gtol = 1e-14 if last else mu
        res = _lbfgsb(partial(barrier_obj, mu=mu), z, max_iter, gtol)
        trace.stages.append(StageLog(float(mu), gtol, res.nit, res.nfev, res.message))
        capped |= res.status == 1  # iteration or evaluation limit
        Z_new, W = _split(res.x, n, m)
        C = wh.M @ W
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
        trace.dual_gap, P = _dual_gap(fit, wh, X)
        if trace.dual_gap <= pd.tol.conj_rel * (1.0 + abs(P)):
            trace.status = "Converged"
        else:
            trace.status = "IterCap" if capped else "Uncertified"
    return trace


_MAXCOR, _MAXLS, _MAXFUN = 10, 20, 15000  # scipy's L-BFGS-B defaults


class _LbfgsbResult(NamedTuple):
    x: np.ndarray
    nit: int
    nfev: int
    status: int  # 0 converged, 1 iteration or evaluation limit, 2 other stop
    message: str


def _lbfgsb(fg, x0: np.ndarray, maxiter: int, gtol: float) -> _LbfgsbResult:
    """Unbounded L-BFGS-B from x0 on fg(x) -> (f, gradient), stopped at a
    projected-gradient max-norm of gtol, with no relative-reduction test.

    It drives scipy's reverse-communication kernel `setulb` (Zhu, Byrd, Lu
    and Nocedal, ACM TOMS 23(4), 1997, Algorithm 778) in the loop of
    `scipy.optimize.minimize(method="L-BFGS-B", options={"maxiter":
    maxiter, "ftol": 0, "gtol": gtol})` at its other defaults, step for
    step, so the iterates, counts, status and message are those of that
    call, without the per-evaluation wrapping it adds.  As there, fg is
    evaluated once at x0 and again only at an x that differs from the
    last one evaluated, an iteration is counted at each new x, and the
    run stops after maxiter iterations or once more than 15000
    evaluations were taken."""
    from scipy.optimize import _lbfgsb
    from scipy.optimize._lbfgsb_py import status_messages, task_messages

    n, m = x0.size, _MAXCOR
    x = np.array(x0, dtype=np.float64)
    lower, upper, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)  # nbd 0: unbounded
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    x_seen = x.copy()
    f_seen, g_seen = fg(x_seen)
    nit, nfev = 0, 1
    while True:
        _lbfgsb.setulb(m, x, lower, upper, nbd, f, g, 0.0, gtol, wa, iwa, task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:  # FG: the kernel asks for f and g at x
            if not np.array_equal(x, x_seen):
                x_seen = x.copy()
                f_seen, g_seen = fg(x_seen)
                nfev += 1
            f, g = f_seen, g_seen
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > _MAXFUN:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            break
    if task[0] == 4:  # CONVERGENCE
        status = 0
    elif nfev > _MAXFUN or nit >= maxiter:
        status = 1
    else:
        status = 2
    message = status_messages[task[0]] + ": " + task_messages[task[1]]
    return _LbfgsbResult(x, nit, nfev, status, message)


class _Whitening(NamedTuple):
    """Ubar = R R^T with R lower triangular, and the upper triangular
    M = R^{-T}/sqrt(2), for which M^T Ubar M = I/2; log_det_M = log det M."""

    R: np.ndarray
    M: np.ndarray
    log_det_M: float


def _whiten(Ubar: np.ndarray) -> _Whitening:
    """The whitening of a positive definite Ubar: one Cholesky
    factorization and one triangular inverse."""
    R = np.linalg.cholesky(Ubar)
    M = lapack().dtrtri(R, lower=1)[0].T / math.sqrt(2.0)
    return _Whitening(R, M, float(np.log(M.diagonal()).sum()))


def _split(z: np.ndarray, n: int, m: int):
    """The views (Z, W) of the solver's variable z = (vec Z, rows of W)."""
    return z[: n * m].reshape((n, m), order="F"), z[n * m :].reshape((n, n))


def _barrier(fit: FitSpec, wh: _Whitening, z: np.ndarray, mu: float):
    """The stage objective f(C Z) + |Z|^2/2 + <Ubar, C C^T> - mu log det(C C^T)
    at C = M W, and its gradient in z = (Z, W), from one LU factorization
    of W.

    In W the weight term is <Ubar, C C^T> = |W|^2/2, so the two quadratic
    terms together are z.z/2 and add z to the gradient.  log det(C C^T)
    = 2 log|det M| + 2 log|det W|: the constant log det M is precomputed,
    so the value is the stage objective itself, and log|det W| is read
    off the LU's diagonal; dgetri turns the same factors into the W^{-T}
    of the barrier's gradient -2 mu W^{-T}.  The factored matrix is W^T,
    the column-major view of W's row-major storage: det W^T = det W, and
    its inverse is W^{-T} itself.  The fit's gradient G at X = C Z gives
    C^T G in Z, and its gradient G Z^T in C maps back to W as M^T G Z^T.
    C C^T is never formed.  At a zero pivot (W singular) or where the
    value is not finite (a NaN or inf in z among them) it returns the
    wall (1e15, 0), which L-BFGS-B's line search backs away from."""
    n, m = fit.n, fit.m
    Z, W = _split(z, n, m)
    lu, piv, info = lapack().dgetrf(W.T)
    if info != 0:
        return 1e15, np.zeros_like(z)
    M = wh.M
    C = M @ W
    fval, Gf = fit.value_and_grad(C @ Z)
    F = fval + 0.5 * float(z @ z)
    F -= 2.0 * mu * (wh.log_det_M + float(np.log(np.abs(lu.diagonal())).sum()))
    if not math.isfinite(F):
        return 1e15, np.zeros_like(z)
    g = np.empty_like(z)
    GZ, GW = _split(g, n, m)
    np.matmul(C.T, Gf, out=GZ)
    np.matmul(M.T, Gf @ Z.T, out=GW)
    g += z
    GW -= (2.0 * mu) * lapack().dgetri(lu, piv)[0]
    return F, g


def _dual_gap(fit: FitSpec, wh: _Whitening, X: np.ndarray) -> tuple[float, float]:
    """(P(X) - D(r), P(X)) for P = f + p, with the residual r scaled into
    the dual feasible set; the gap is >= 0.

    With Ubar = R R^T, p(X) = sqrt(2) |R^T X|_* and p* is the indicator
    of |R^{-1} Lam|_2 <= sqrt(2), where R^{-1} = sqrt(2) M^T reuses the
    solver's whitening.  The Fenchel dual of f + p is
    D(r) = -|r|^2/2 - <b, r> over -A^T r in dom p*; the residual
    r0 = A vec(X) - b scaled by t = min(1, sqrt(2) / |R^{-1} A^T r0|_2)
    is feasible, and <b, r0> = <X, A^T r0> - |r0|^2 needs no more than
    f and its gradient at X.  The gap is f(X) (1 - t)^2 + (p(X) + t <X, G>)
    for G = A^T r0; the second term is >= 0 because -t G is in the dual
    ball, so a negative value of it is roundoff and counts as 0.  The gap
    vanishes at the optimum, where -A^T r0 is a subgradient of p at X."""
    fval, G = fit.value_and_grad(X)
    pval = np.sqrt(2.0) * float(np.sum(sv(wh.R.T @ X)))
    dual_norm = float(sv(np.sqrt(2.0) * (wh.M.T @ G))[0])
    t = 1.0 if dual_norm <= np.sqrt(2.0) else np.sqrt(2.0) / dual_norm
    return fval * (1.0 - t) ** 2 + max(0.0, pval + t * float(np.sum(X * G))), fval + pval


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
