"""Infimal projection p(X) = inf_V phi(X, V) + h(V) and its calculus.

Provides the primal evaluator (closed forms for every h when ker A = {0},
for the indicator and support function of spectral sets and of a ray,
for indicator sets with a greatest element, and for linear h and the
indicator of a ray at every A, where a certified ray or the exact value
decides whether the lifted set Xi(A, B) is empty; projected subgradient
descent otherwise),
the conjugate p* through the lifted set Omega(A, B), the dual value
<X, Y> - p*(Y) at the evaluator's own maximizer Y, Fenchel subgradient
certificates, and the constraint-qualification report, where each verdict
is one rule over the two sets dom h and dom h* (h.dom, h.conj_dom).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gmf import ProblemData, _eval_gmf, _finite
from .hset import (
    HSpec,
    Hull,
    Indicator,
    Linear,
    ShiftedPSDCap,
    Singleton,
    SpectralSet,
    Support,
)
from .numlin import Tolerances, _rect

_UNBOUNDED_CUTOFF = -1.0e7


@dataclass(frozen=True)
class InfProjProblem:
    """Data (A, B) plus the perturbation h acting on V; the tolerances
    are pd's.  h = sigma_{U} is stored as the Linear h = <U, .> it is.
    The rule that serves (A, h), the halves of the closed forms' p that
    X leaves alone (_linear, _pencil, _conj), the CCQ slack, sup over
    dom h of lambda_min(N^T V N), and at A = 0 the PSD slack, sup over
    dom h* of lambda_min(V), are computed when first read and kept."""

    pd: ProblemData
    h: HSpec

    def __post_init__(self):
        if self.h.n != self.pd.n:
            raise ValueError("h must act on n x n symmetric matrices")
        if type(self.h) is Support and isinstance(self.h.set, Singleton):
            object.__setattr__(self, "h", Linear(self.h.set.U))

    @cached_property
    def _linear(self) -> _Slope | None:
        return _linear_factors(self)

    @cached_property
    def _pencil(self) -> _Pencil | None:
        return _pencil_factors(self)

    @cached_property
    def _conj(self) -> tuple | None:
        return _conj_factors(self)

    @cached_property
    def _ka_slack(self) -> float:
        return np.inf if self.pd.ker_trivial else self.h.dom.max_min_eig(self.pd.N, self.tol)

    @cached_property
    def _psd_slack(self) -> float:
        # read at A = 0 only; a slope U is dom h*'s greatest element, so its lambda_min is the sup
        lin = self._linear
        return lin.mu_min if lin is not None else self.h.conj_dom.max_min_eig(np.eye(self.pd.n), self.tol)

    @cached_property
    def _rule(self):
        """The first of eval_p's rules whose test passes, in eval_p's order."""
        h, pd = self.h, self.pd
        rule = (
            _spectral_path if isinstance(h.set, SpectralSet) and pd.unconstrained
            else _loewner_path if h.dom.loewner_max() is not None
            else _conjugate_path if self._conj is not None
            else _ray_path if self._pencil is not None or (pd.unconstrained and not h.set.bounded)
            else _linear_path if self._linear is not None
            else _descent
        )
        if rule is not _descent:
            return rule
        if self._ka_slack < -self.tol.psd_abs:  # dom h misses K_A: p = +inf at every X
            return lambda prob, X: InfProjEval(np.inf, status="infeasible", path="domain")
        # at A = 0, where dom h* misses PSD, a V >= 0 with sigma_{dom h*}(V) < 0 gives F(I + tV) <= F(I) + t sigma_{dom h*}(V)
        V = h.conj_dom.psd_separator(self.tol) if pd.unconstrained and self._psd_slack < -self.tol.psd_abs else None
        return _descent if V is None else lambda prob, X: _ray(V, np.eye(pd.n))

    @property
    def tol(self) -> Tolerances:
        return self.pd.tol


@dataclass
class InfProjEval:
    """Outcome of evaluating p(X).

    status is one of "finite", "infeasible" (value +inf), "unbounded"
    (value -inf).  V is the (approximate) inner minimizer, Y the
    maximizer of the underlying saddle, both None when not finite; V is
    also None where the infimum need not be attained (see the paths).
    When unbounded, unbounded_direction is a descent ray from the point
    unbounded_base, certified on "recession" (V = 0 on the "conjugate"
    rule's rays, D on pos{D}'s, I on the others).  path names how the
    value was reached: "spectral", "loewner", "conjugate", "ray" or
    "weighted_nuclear" (closed forms), "recession" (a certified ray),
    "domain" (dom h misses K_A), all with iters = 0, or "descent".
    """

    value: float
    V: np.ndarray | None = None
    Y: np.ndarray | None = None
    status: str = "finite"
    iters: int = 0
    unbounded_direction: np.ndarray | None = None
    path: str = "descent"
    unbounded_base: np.ndarray | None = None


@dataclass
class CQReport:
    """Tri-state verdicts for the five constraint qualifications.

    Each field is "holds", "fails", or "undecided".  One test places 0
    in, in the ri of, or in the int of Omega_2 + dom h*: pcq is the ri,
    spcq the int, and 0 in the set says that the lifted feasible set
    Xi(A, B) is not empty.  At A = 0 the test reads the PSD slack, sup
    over dom h* of lambda_min.  bpcq asks for dom h intersect K_A
    nonempty and bounded, ccq for dom h meeting the interior of K_A
    (the CCQ slack), and sccq for ccq and a nonempty Xi(A, B)."""

    pcq: str = "undecided"
    spcq: str = "undecided"
    bpcq: str = "undecided"
    ccq: str = "undecided"
    sccq: str = "undecided"
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Inner minimization


def _start_candidates(prob: InfProjProblem, rng: np.random.Generator):
    """Points of dom h worth trying as descent starts / domain witnesses."""
    n = prob.pd.n
    h = prob.h
    tol = prob.tol
    eye = np.eye(n)
    raw = [eye, 0.1 * eye, 10.0 * eye, prob.pd.P, np.zeros((n, n))]
    S = h.set
    hull = isinstance(S, Hull)
    if hull:
        raw.extend(S.points)
        w = np.full(len(S.points), 1.0 / len(S.points))
        raw.append(sum(wi * U for wi, U in zip(w, S.points)))
    if isinstance(S, ShiftedPSDCap):
        raw.extend([S.U, 0.5 * S.U])
    for _ in range(40):
        R = rng.standard_normal((n, n))
        raw.append(R @ R.T)
        if hull:
            w = rng.dirichlet(np.ones(len(S.points)))
            raw.append(sum(wi * U for wi, U in zip(w, S.points)))
    out = []
    seen = set()
    for V in raw:
        V = h.dom.project(0.5 * (V + V.T), tol)
        tag = hash(np.round(V, 9).tobytes())
        if tag in seen:
            continue
        seen.add(tag)
        out.append(V)
    return out


def _objective(prob: InfProjProblem, X: np.ndarray, V: np.ndarray):
    """(phi(X, V) + h(V), phi's evaluation, a subgradient of h at V) at
    the symmetric part of V, which projections return symmetric only up
    to rounding; the subgradient is None where phi(X, V) or sigma_S(V)
    is infinite."""
    V = 0.5 * (V + V.T)
    ge = _eval_gmf(prob.pd, X, V)
    if not np.isfinite(ge.value):
        return np.inf, ge, None
    hv, W = prob.h.value(V, prob.tol)
    return ge.value + hv, ge, W


def _water_fill(s: np.ndarray, cap: float, total: float) -> np.ndarray:
    """Minimizer of sum s_i^2 / (2 lam_i) over 0 <= lam <= cap,
    sum lam <= total, for s >= 0 sorted in descending order.

    KKT gives lam_i = min(cap, s_i / theta).  With a slack budget
    theta = 0 and every lam_i with s_i > 0 sits at the cap (every lam_i
    when there is no budget).  Otherwise t = 1/theta solves
    g(t) = sum min(cap, s_i t) = total.  g is the minimum of its linear
    pieces c * cap + t * (s_c + s_{c+1} + ...), capping the c largest
    entries, so the root is the largest root over the pieces."""
    if np.isinf(total):
        return np.full(s.size, cap)
    lam = np.zeros(s.size)
    p = int(np.count_nonzero(s))
    if p == 0:
        return lam
    if p * cap <= total:
        lam[:p] = cap
        return lam
    tails = np.cumsum(s[:p][::-1])[::-1]
    if np.isinf(cap):
        t = total / tails[0]
    else:
        room = total - cap * np.arange(p)
        fits = room > 0.0
        t = float(np.max(room[fits] / tails[fits]))
    lam[:p] = np.minimum(cap, s[:p] * t)
    return lam


def _spectral_path(prob: InfProjProblem, X: np.ndarray) -> InfProjEval:
    """Exact p(X) for h = delta_S or sigma_S, S a spectral set, and A = 0.

    p then depends only on the singular values s of X = U diag(s) W^T
    (Lewis's transfer principle).  delta_S: V = U diag(lam) U^T with lam
    water-filled over the eigenvalues of S intersect PSD, Y = V^+ X.
    sigma_S: p = max over W in S of |(2W)^{1/2} X|_*, by von Neumann's
    trace inequality sum s_i sqrt(2 mu_i) at mu = the water-filling of
    s^2; Y = U diag(sqrt(2 mu)) W^T has YY^T/2 in S, and V =
    U diag(s / sqrt(2 mu)) U^T attains p unless some s_i > 0 has mu_i = 0."""
    h = prob.h
    # S intersect PSD has eigenvalues in {0 <= lam_i <= cap, sum <= total};
    # a box with lo > 0 also bounds them below, which the all-cap
    # solution of a budget-free set meets
    cap, total = h.set.cap, h.set.total
    n = X.shape[0]
    if cap < 0.0:  # S misses the PSD cone; sigma_S(tI) = t n cap
        return _ray(np.eye(n), np.eye(n)) if isinstance(h, Support) else InfProjEval(np.inf, status="infeasible", path="spectral")
    U, s, Wt = np.linalg.svd(X)
    k = s.size
    sn = np.zeros(n)
    sn[:k] = s
    if isinstance(h, Support):  # y: Y's singular values, lam: V's eigenvalues
        y = np.sqrt(2.0 * _water_fill(sn**2, cap, total))
        lam = np.divide(sn, y, out=np.zeros(n), where=y > 0.0)
        value, attained = float(sn @ y), not np.any(sn[y == 0.0])
    else:
        lam = _water_fill(sn, cap, total)
        live = lam > 0.0
        # the range condition rge X in rge V, with eval_gmf's slack
        if np.linalg.norm(sn[~live]) > prob.tol.feas_abs * (1.0 + np.linalg.norm(s)):
            return InfProjEval(np.inf, status="infeasible", path="spectral")
        y = np.divide(sn, lam, out=np.zeros(n), where=live)
        value, attained = 0.5 * float(np.sum(sn * y)), True
    V = (U * lam) @ U.T if attained else None
    return InfProjEval(_finite(value), V=V, Y=(U[:, :k] * y[:k]) @ Wt[:k], path="spectral")


def _loewner_path(prob: InfProjProblem, X: np.ndarray) -> InfProjEval:
    """Exact p(X) = phi(X, Vbar) for h = delta_S with S holding a greatest
    element Vbar in the Loewner order, for every A.

    phi(X, .) is a supremum over Y of <X, Y> - <YY^T, V>/2, so it is
    nonincreasing in that order: phi(X, V) >= phi(X, Vbar) on all of S,
    +inf included."""
    Vbar = prob.h.dom.loewner_max()
    ge = _eval_gmf(prob.pd, X, Vbar)
    if not np.isfinite(ge.value):
        return InfProjEval(np.inf, status="infeasible", path="loewner")
    return InfProjEval(ge.value, V=Vbar, Y=ge.witness_Y, path="loewner")


def _conj_factors(prob: InfProjProblem) -> tuple | None:
    """_conjugate_path's half that X leaves alone: (h*(C0), V, None) with V
    attaining h*(C0) if finite, else (inf, None, d) once the slope
    h(d) - <C0, d> is below -feas_abs |d|; None where ker A != {0} or
    neither test decides."""
    pd, h, tol = prob.pd, prob.h, prob.tol
    if not pd.ker_trivial:
        return None
    C0 = 0.5 * pd.Y0 @ pd.Y0.T
    C0 = 0.5 * (C0 + C0.T)
    conj, V = h.conj(C0, tol)
    if np.isfinite(conj):
        return conj, V, None
    d = C0 - h.conj_dom.project(C0, tol)
    hd = h.value(0.5 * (d + d.T), tol)[0]
    return (conj, None, d) if hd - float(np.sum(C0 * d)) < -tol.feas_abs * np.linalg.norm(d) else None


def _conjugate_path(prob: InfProjProblem, X: np.ndarray) -> InfProjEval:
    """Exact p(X) = <X, Y0> - h*(C0), C0 = Y0 Y0^T/2, for every h when
    ker A = {0}, where phi(X, V) = <X, Y0> - <C0, V> (see the README):
    attained at Y0 and V = argmax <C0, V> - h(V) if h*(C0) is finite,
    else -inf along V = td from 0, d = C0 - proj(C0) onto dom h*."""
    conj, V, d = prob._conj
    if d is not None:
        return _ray(d, np.zeros_like(d))
    return InfProjEval(float(np.sum(X * prob.pd.Y0)) - conj, V=V.copy(), Y=prob.pd.Y0, path="conjugate")


# what _linear_path reads at each X: the D of a certified ray V = I + tD
# and nothing else, or L = (2M)^{1/2}; K and off_Y0 = I - Pi unless free
# (A = 0: N = I, K = 0, M = U); when free and U > 0, E and E / sqrt(mu)
# from U's eigendecomposition give V, else both are None; mu_min is
# lambda_min(M), which _psd_slack reads at A = 0 as U's
_Slope = namedtuple("_Slope", "ray free L K off_Y0 E E_root_inv mu_min", defaults=(None,) * 7)


def _linear_factors(prob: InfProjProblem) -> _Slope | None:
    """The X-independent half of _linear_path for its slope U, the element
    of dom h* = S with sigma_S = <U, .> on K_A (S.greatest): linear h's
    own, and at A = 0 the greatest element of S in the Loewner order
    (K_A is then PSD).  None without such a U and at ker A = {0}."""
    h, pd, tol = prob.h, prob.pd, prob.tol
    free = pd.unconstrained  # N = I and Y0 = 0: K = 0, M = U
    U = None if pd.ker_trivial else h.conj_dom.greatest(free)
    if U is None:
        return None
    N, Y0 = pd.N, pd.Y0
    K = off_Y0 = None
    if not free:
        Q = np.eye(pd.n) - pd.P
        Y0_pinv = np.linalg.pinv(Y0, rcond=tol.rank_rel)
        R = pd.P @ U @ (Q - Y0 @ Y0_pinv)
        D = -(Q @ (U - 0.5 * Y0 @ Y0.T) @ Q + R + R.T)
        if np.linalg.norm(D) > tol.feas_abs * (1.0 + np.linalg.norm(U) + 0.5 * np.linalg.norm(Y0) ** 2):
            return _Slope(D)
        K = N.T @ U @ Y0_pinv.T
        off_Y0 = np.eye(pd.m) - Y0_pinv @ Y0
    mu, E = np.linalg.eigh(U if free else N.T @ U @ N - 2.0 * K @ K.T)
    if mu[0] < -tol.psd_abs:
        v = N @ E[:, :1]
        W = np.zeros_like(U) if free else -2.0 * v @ (E[:, :1].T @ K) @ Y0_pinv
        return _Slope(v @ v.T + W + W.T)
    lam = np.where(mu > tol.psd_abs, mu, 0.0)  # 0 inside the floor
    L = (E * np.sqrt(2.0 * lam)) @ E.T
    E, E_root_inv = (E, E / np.sqrt(mu)) if free and mu[0] > tol.psd_abs else (None, None)
    return _Slope(None, free, L, K, off_Y0, E, E_root_inv, float(mu[0]))


def _linear_path(prob: InfProjProblem, X: np.ndarray, with_V: bool = True) -> InfProjEval:
    """Exact p(X) for linear h = <U, .>, ker A != {0}, and for the h that
    _linear_factors reduces to it: a certified ray, or the value with its
    maximizer Y, a point of Xi(A, B) (derived in the README); one SVD per X.

    With Q = I - P, R = P U (Q - Y0 Y0^+), K = N^T U (Y0^+)^T, Pi = Y0^+ Y0
    and M = N^T U N - 2 K K^T: p = -inf along V = I + tD for
    D = -(Q (U - Y0 Y0^T/2) Q + R + R^T) unless D = 0, and along an
    eigenvector of M with a negative eigenvalue unless M >= 0.  Otherwise,
    for L = (2M)^{1/2} and the SVD L N^T X (I - Pi) = Qs diag(s) Ws^T,
    p(X) = <X, Y0> + 2 <K, N^T X> + sum(s) at
    Y = Y0 + N (2K + L Qs Ws^T (I - Pi)).  V is returned only for A = 0
    (K = 0, M = U) and U > 0, where the infimum is attained, and only
    with_V (the dual needs Y alone)."""
    f = prob._linear
    if f.ray is not None:  # normalized afresh, so no caller can alter prob's
        return _ray(f.ray, np.eye(prob.pd.n))
    L, K, off_Y0 = f.L, f.K, f.off_Y0
    N, Y0 = prob.pd.N, prob.pd.Y0
    Qs, s, Wt = np.linalg.svd(L @ (X if f.free else N.T @ X @ off_Y0), full_matrices=False)
    if f.free:
        Rinv_Q = f.E_root_inv @ (f.E.T @ Qs) if with_V and f.E is not None else None
        W = None if Rinv_Q is None else (Rinv_Q * (0.5 * s)) @ Rinv_Q.T  # symmetric by construction
        return InfProjEval(float(s.sum()), V=None if W is None else 0.5 * (W + W.T), Y=L @ Qs @ Wt, path="weighted_nuclear")
    value = float(np.sum(X * Y0)) + 2.0 * float(np.sum(K * (N.T @ X))) + float(s.sum())
    # off_Y0 keeps singular vectors of rounding-level singular values off rge Y0^T
    Y = Y0 + N @ (2.0 * K + L @ Qs @ Wt @ off_Y0)
    return InfProjEval(value, Y=Y, path="weighted_nuclear")


def _ray(D: np.ndarray, base: np.ndarray) -> InfProjEval:
    d = D / np.linalg.norm(D)
    return InfProjEval(-np.inf, status="unbounded", unbounded_direction=d, path="recession", unbounded_base=base)


_Pencil = namedtuple("_Pencil", "R NE_dead b_dead Y_lim psd pinned gamma xi_empty")


def _pencil_factors(prob: InfProjProblem) -> _Pencil | None:
    """_ray_path's half that X leaves alone, for h = delta_{pos{D}}, D != 0
    and ker A != {0} (None for every other h): with N^T D N = E diag(lam)
    E^T and live lam > psd_abs, R = N E_live lam^{-1/2}, N E_dead, b_dead =
    (N E_dead)^T D Y0, Y_lim = Y0 - N E_live (b_live / lam), gamma (0 within
    its rounding slack) and the flags.  Xi(A, B) is empty iff H >= 0,
    b_dead = 0 and gamma < 0: then <Y, DY> >= -2 gamma > 0 where AY = B."""
    h, pd, tol = prob.h, prob.pd, prob.tol
    if isinstance(h, Support) or h.set.bounded or pd.ker_trivial:
        return None
    D, N, Y0 = h.set.D, pd.N, pd.Y0
    lam, E = np.linalg.eigh(N.T @ D @ N)
    live, NE = lam > tol.psd_abs, N @ E
    b, lam_live = NE.T @ D @ Y0, lam[live, None]
    s, c = 0.5 * float(np.sum(b[live] ** 2 / lam_live)), float(np.sum(Y0 * (D @ Y0)))
    gamma = s - 0.5 * c
    gamma = 0.0 if abs(gamma) <= tol.feas_abs * (1.0 + s + 0.5 * abs(c)) else gamma
    psd = bool(lam[0] >= -tol.psd_abs)
    pinned = bool(np.linalg.norm(b[~live]) > tol.feas_abs * (1.0 + np.linalg.norm(D) * np.linalg.norm(Y0)))
    Y_lim = Y0 - NE[:, live] @ (b[live] / lam_live)
    return _Pencil(NE[:, live] / np.sqrt(lam_live.T), NE[:, ~live], b[~live], Y_lim, psd, pinned, gamma, psd and not pinned and gamma < 0.0)


def _ray_path(prob: InfProjProblem, X: np.ndarray) -> InfProjEval:
    """Exact p(X) for h = delta_{pos{D}}, D != 0, at every A with
    ker A != {0}, and for h = sigma_{pos{D}} at A = 0 (see the README).

    delta: phi(X, alpha D) = k + beta/alpha + gamma alpha for alpha > 0,
    k = <X, Y_lim> and beta = |R^T X|^2 / 2, where H >= 0 and (N E_dead)^T X
    = alpha b_dead.  gamma < 0 gives a ray from D, gamma > 0 alpha* =
    sqrt(beta/gamma) and gamma = 0 p = k (not attained); alpha = 0 is left
    where H is not PSD.  sigma: p = 0 (not attained) where phi(X, .) is
    finite at _ray_witness's V, and +inf otherwise."""
    pd, h, tol, f = prob.pd, prob.h, prob.tol, prob._pencil
    D, alpha = h.set.D, 0.0  # alpha = 0 is all that is left unless H >= 0
    if f is None:  # sigma_{pos{D}} at A = 0
        if not np.isfinite(_eval_gmf(pd, X, _ray_witness(prob)).value):
            return InfProjEval(np.inf, status="infeasible", path="ray")
        return InfProjEval(0.0, Y=np.zeros_like(X), path="ray")
    if f.psd and f.pinned:
        alpha = max(0.0, float(np.sum((f.NE_dead.T @ X) * f.b_dead) / np.sum(f.b_dead**2)))
    elif f.psd:
        if np.linalg.norm(f.NE_dead.T @ X) > tol.feas_abs * (1.0 + np.hypot(np.linalg.norm(X), np.linalg.norm(pd.B))):
            return InfProjEval(np.inf, status="infeasible", path="ray")
        if f.gamma < 0.0:
            return _ray(D, D.copy())
        if f.gamma == 0.0:
            return InfProjEval(_finite(float(np.sum(X * f.Y_lim))), Y=f.Y_lim.copy(), path="ray")
        alpha = _finite(np.sqrt(0.5 * float(np.sum((f.R.T @ X) ** 2)) / f.gamma))
    ge = _eval_gmf(pd, X, alpha * D)
    if not np.isfinite(ge.value):
        return InfProjEval(np.inf, status="infeasible", path="ray")
    return InfProjEval(ge.value, V=alpha * D, Y=ge.witness_Y, path="ray")


def _ray_witness(prob: InfProjProblem) -> np.ndarray:
    """A point of dom h where the ray rule's p is not attained: D for
    delta_{pos{D}}.  For sigma_{pos{D}} at A = 0, X lies in dom p iff
    phi(X, V) is finite at V = I + t qq^T (q D's least eigenvector, below
    -psd_abs; <D, V> <= -1), else at the projector V onto ker D."""
    D, psd_abs = prob.h.set.D, prob.tol.psd_abs
    if prob._pencil is not None:
        return D.copy()
    lam, E = np.linalg.eigh(D)
    if lam[0] >= -psd_abs:
        return E[:, lam <= psd_abs] @ E[:, lam <= psd_abs].T
    return np.eye(D.shape[0]) + max(0.0, (lam.sum() + 1.0) / -lam[0]) * np.outer(E[:, 0], E[:, 0])


def eval_p(
    prob: InfProjProblem, X: np.ndarray, max_iter: int = 4000, seed: int = 0
) -> InfProjEval:
    """Evaluate p(X) = inf_V phi(X, V) + h(V).

    Closed forms: at A = 0, h = delta_S or sigma_S for a spectral box,
    trace ball or Fantope ("spectral") and for a ray ("ray"); at every A,
    h = delta_S for S with a greatest element V in the Loewner order
    ("loewner"); at ker A = {0}, every h ("conjugate"); and at every
    other A, delta_S for a ray ("ray") and linear h, or sigma_S at A = 0
    for S with such a V ("weighted_nuclear", see _linear_factors).
    p = -inf comes with a certified ray ("recession"), and p = +inf at
    every X where dom h misses K_A ("domain").  Every other case runs
    projected subgradient descent (see _descent).  A value that
    overflows on finite X raises ValueError."""
    return _eval_p(prob, _rect(X, (prob.pd.n, prob.pd.m)), max_iter, seed)


def _eval_p(prob: InfProjProblem, X: np.ndarray, max_iter: int = 4000, seed: int = 0) -> InfProjEval:
    """eval_p on a trusted X, by the problem's rule."""
    rule = prob._rule
    return _descent(prob, X, max_iter, seed) if rule is _descent else rule(prob, X)


def _descent(prob: InfProjProblem, X: np.ndarray, max_iter: int, seed: int) -> InfProjEval:
    """Projected subgradient descent on V with Barzilai-Borwein steps and
    backtracking, from the best of a seeded set of starts.  Values below
    -1e7 are reported as unbounded."""
    tol = prob.tol
    rng = np.random.default_rng(seed)
    best = None, np.inf, None, None
    for V in _start_candidates(prob, rng):
        F, ge, W = _objective(prob, X, V)
        if F < best[1]:
            best = V, F, ge, W
    V, F, ge, W = best
    if V is None or not np.isfinite(F):
        return InfProjEval(np.inf, status="infeasible")
    start_V = V

    dom = prob.h.dom
    g = -0.5 * ge.witness_Y @ ge.witness_Y.T + W
    t = 1.0 / (1.0 + np.linalg.norm(g))
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        accepted = False
        tt = t
        for _ in range(40):
            V_new = V - tt * g
            V_new = dom.project(0.5 * (V_new + V_new.T), tol)
            F_new, ge_new, W_new = _objective(prob, X, V_new)
            step = np.linalg.norm(V_new - V)
            if F_new <= F - 1.0e-4 / max(tt, 1e-300) * step**2 and step > 0:
                accepted = True
                break
            tt *= 0.5
        if not accepted:
            break
        g_new = -0.5 * ge_new.witness_Y @ ge_new.witness_Y.T + W_new
        s = V_new - V
        y = g_new - g
        sy = float(np.sum(s * y))
        if sy > 1e-300:
            t = min(max(float(np.sum(s * s)) / sy, 1e-12), 1e9)
        else:
            t = min(tt * 4.0, 1e9)
        if F - F_new <= 1e-14 * (1.0 + abs(F)):
            stall += 1
        else:
            stall = 0
        V, F, ge, g = V_new, F_new, ge_new, g_new
        if F < _UNBOUNDED_CUTOFF:
            D = V - start_V
            nrm = np.linalg.norm(D)
            D = D / nrm if nrm > 0 else D
            vals = [
                _objective(prob, X, start_V + t * D)[0]
                for t in (1.0, 10.0, 100.0, 1e4, 1e6)
            ]
            if not all(b < a for a, b in zip(vals, vals[1:])):
                D = None
            return InfProjEval(
                -np.inf, status="unbounded", iters=it, unbounded_direction=D, unbounded_base=None if D is None else start_V
            )
        if stall >= 8:
            break
        if np.linalg.norm(s) <= 1e-12 * (1.0 + np.linalg.norm(V)):
            break
    return InfProjEval(F, V=V, Y=ge.witness_Y, status="finite", iters=it)


def dom_p_member(prob: InfProjProblem, X: np.ndarray):
    """Search for V in dom h with phi(X, V) finite, certifying X in dom p.

    Returns (found, V, status): "witness" on success, V = I where
    dom h = S^n.  Under a closed form X lies in dom p iff the rule's status
    is not "infeasible" ("exhaustive"), witnessed by its V, its ray's base
    or _ray_witness's point; the descent's failure is "sampled"."""
    X = _rect(X, (prob.pd.n, prob.pd.m))
    if prob.h.dom.full:
        return True, np.eye(prob.pd.n), "witness"
    if prob._rule is not _descent:
        pe = prob._rule(prob, X)
        if pe.status == "infeasible":
            return False, None, "exhaustive"
        V = pe.V if pe.V is not None else pe.unbounded_base
        return True, _ray_witness(prob) if V is None else V, "witness"
    rng = np.random.default_rng(0)
    for V in _start_candidates(prob, rng):
        if np.isfinite(_objective(prob, X, V)[0]):
            return True, V, "witness"
    return False, None, "sampled"


# ---------------------------------------------------------------------------
# Conjugate and the lifted feasible set


def xi_member(prob: InfProjProblem, Y: np.ndarray):
    """Membership of Y in the lifted feasible set
    Xi(A, B) = {Y : AY = B, YY^T/2 in dom h* + (K_A polar)}.

    Returns (answer, status); answer is None when status is "undecided".
    After the equality test, dom h*'s covers rule decides the rest.
    """
    return _xi_member(prob, _rect(Y, (prob.pd.n, prob.pd.m), "Y"))


def _xi_member(prob: InfProjProblem, Y: np.ndarray):
    pd = prob.pd
    if not pd.solves(Y):
        return False, "exact"
    G = 0.5 * Y @ Y.T
    ans = prob.h.conj_dom.covers(0.5 * (G + G.T), pd)
    return ans, ("undecided" if ans is None else "exact")


def eval_p_conj(prob: InfProjProblem, Y: np.ndarray):
    """Conjugate p*(Y) through the lifted representation
    p*(Y) = inf{h*(W) : AY = B, YY^T/2 - W in the polar of K_A}.

    Returns (value, status); exact for linear h, for indicator h where
    sigma over S intersect K_A has a rule (sigma_S at ker A = {0} or
    with S inside K_A, psd_cap_support at A = 0), and for support-type
    h when the lifted membership is decidable."""
    return _eval_p_conj(prob, _rect(Y, (prob.pd.n, prob.pd.m), "Y"))


def _eval_p_conj(prob: InfProjProblem, Y: np.ndarray):
    pd, h, tol = prob.pd, prob.h, prob.tol
    if isinstance(h, Indicator):
        if not pd.solves(Y):
            return np.inf, "exact"
        G = Y @ Y.T
        G = 0.5 * (G + G.T)
        if pd.unconstrained:  # nan: a hull's cuts ran out
            val, _ = h.set.psd_cap_support(G, tol)
        elif pd.ker_trivial or h.set.inside_KA(pd):
            val, _ = h.set.support(G, tol)
        else:
            return np.nan, "undecided"
        return 0.5 * val, "undecided" if np.isnan(val) else "exact"
    # h* is the indicator of {U} or of S, so p* is the indicator of Xi(A, B)
    ans, status = _xi_member(prob, Y)
    if status != "exact":
        return np.nan, "undecided"
    return (0.0 if ans else np.inf), "exact"


# ---------------------------------------------------------------------------
# Dual value and gap


def dual_value(prob: InfProjProblem, X: np.ndarray):
    """sup_Y <X, Y> - p*(Y), read at the maximizer Y that eval_p returns.

    Returns (value, Y, status).  A certified ray ("recession") makes p*
    identically +inf, so the value is -inf (Y None), "exact", for every
    h.  For linear h, p* is the indicator of Xi(A, B) and the closed
    forms' Y maximizes over it: the value is "exact", p(X) itself.  For
    every other h the value is <X, Y> - p*(Y) with p* from eval_p_conj,
    "numeric" when p*(Y) is exact and finite: a certified lower bound on
    p(X), equal to it wherever Y is optimal.  Every other case (no Y,
    p*(Y) undecided or +inf) is "undecided"."""
    X = _rect(X, (prob.pd.n, prob.pd.m))
    return _dual_at(prob, X, _linear_path(prob, X, with_V=False) if prob._rule is _linear_path else _eval_p(prob, X))


def _dual_at(prob: InfProjProblem, X: np.ndarray, pe: InfProjEval):
    """The dual objective at pe's Y (see dual_value)."""
    if isinstance(prob.h, Linear) or pe.path == "recession":
        return pe.value, pe.Y, "exact"
    if pe.Y is None:
        return np.nan, None, "undecided"
    pstar, status = _eval_p_conj(prob, pe.Y)
    if status != "exact" or not np.isfinite(pstar):
        return np.nan, None, "undecided"
    return float(np.sum(X * pe.Y)) - pstar, pe.Y, "numeric"


def dual_gap(prob: InfProjProblem, X: np.ndarray):
    """(p(X), dual value, gap, status) from one eval_p; the gap is 0 when
    rays certify both -inf.  For h not linear the gap is the Fenchel gap
    p(X) + p*(Y) - <X, Y> at eval_p's Y, as subdiff_p_witness reports."""
    X = _rect(X, (prob.pd.n, prob.pd.m))
    pe = _eval_p(prob, X)
    dv, _, status = _dual_at(prob, X, pe)
    if status == "exact" and pe.value == dv == -np.inf:
        return pe.value, dv, 0.0, status
    if status == "undecided" or not np.isfinite(pe.value):
        return pe.value, dv, np.nan, "undecided"
    return pe.value, dv, pe.value - dv, status


def subdiff_p_witness(prob: InfProjProblem, X: np.ndarray):
    """Subgradient Y of p at X with its Fenchel gap p(X) + p*(Y) - <X, Y>.

    Returns (Y, gap, status)."""
    X = _rect(X, (prob.pd.n, prob.pd.m))
    pe = _eval_p(prob, X)
    if pe.status != "finite":
        raise ValueError(f"p(X) is not finite (status {pe.status})")
    Y = pe.Y
    pstar, status = _eval_p_conj(prob, Y)
    if status != "exact":
        return Y, np.nan, "undecided"
    gap = pe.value + pstar - float(np.sum(X * Y))
    return Y, gap, "exact"


# ---------------------------------------------------------------------------
# Constraint qualifications


def _tri(flag: bool | None) -> str:
    return "undecided" if flag is None else "holds" if flag else "fails"


def cq_report(prob: InfProjProblem) -> CQReport:
    """Decide the five constraint qualifications from dom h and dom h*
    (h.dom, h.conj_dom), each tested against K_A and Omega_2; report
    "undecided" where a set rule cannot decide (see the README)."""
    tol, pd, h = prob.tol, prob.pd, prob.h
    rep = CQReport()
    dom, conj_dom = h.dom, h.conj_dom
    lin, pen = prob._linear, prob._pencil

    # ---- CCQ: dom h meets int K_A; BPCQ: dom h intersect K_A nonempty and bounded
    s = prob._ka_slack
    known = not np.isnan(s)  # nan: a hull's cuts left the side of +-psd_abs open
    bounded = s >= -tol.psd_abs and dom.ka_bounded(pd) if known else None
    rep.ccq, rep.bpcq = _tri(s > tol.psd_abs if known else None), _tri(bounded)

    # ---- 0 in / ri / int (Omega_2 + dom h*): Xi(A, B) is not empty, PCQ, SPCQ
    if (lin is not None and lin.ray is not None) or (pen is not None and pen.xi_empty):
        inside = ri = interior = False  # _linear_path's and _ray_path's factors certify Xi(A, B) empty
    elif pd.ker_trivial:  # Omega_2 is the singleton {-C0}
        C0 = 0.5 * pd.Y0 @ pd.Y0.T
        C0 = 0.5 * (C0 + C0.T)
        inside, (ri, interior) = conj_dom.covers(C0, pd), conj_dom.interior_member(C0, tol)
    elif pd.unconstrained and isinstance(h, Indicator):
        # 0 lies in Omega_2 and in dom h*; bounded perturbation equivalence gives ri = int = bpcq
        inside, ri, interior = True, bounded, bounded
        rep.notes.append("pcq/spcq matched to bpcq (indicator case with no equality constraint)")
    elif pd.unconstrained:  # Omega_2 is the negative semidefinite cone
        t = prob._psd_slack
        inside = None if np.isnan(t) else t >= -tol.psd_abs
        ri = interior = None if np.isnan(t) else t > tol.psd_abs
    else:
        ri = interior = True if conj_dom.full else None
        inside = True if conj_dom.full or lin is not None or pen is not None else None
    rep.pcq, rep.spcq = _tri(ri), _tri(interior)

    # implication chain upgrades
    if rep.bpcq == "holds":
        rep.spcq = "holds"
    if rep.spcq == "holds":
        rep.pcq = "holds"
    if rep.pcq == "fails":
        rep.spcq = "fails"

    # ---- SCCQ: CCQ plus nonemptiness of Xi(A, B)
    rep.sccq = rep.ccq if rep.ccq != "holds" else _tri(inside)
    if rep.sccq == "undecided" and rep.ccq == "holds":
        rep.notes.append("sccq: Y0 = A^+ B is not a certified point of Xi(A, B)")
    return rep
