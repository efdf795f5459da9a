"""Infimal projection p(X) = inf_V phi(X, V) + h(V) and its calculus.

Provides the primal evaluator (closed forms for every h when ker A = {0},
for the indicator and support function of spectral sets and of a ray,
for indicator sets with a greatest element and for linear h at every A,
where a certified ray or the exact value decides whether the lifted set
Xi(A, B) is empty; projected subgradient descent otherwise),
the conjugate p* through the lifted set Omega(A, B), the dual value
<X, Y> - p*(Y) at the evaluator's own maximizer Y, Fenchel subgradient
certificates, and the constraint-qualification report, where each verdict
is one rule over the two sets dom h and dom h* (h.dom, h.conj_dom).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gmf import ProblemData, eval_gmf
from .hset import (
    ConvexSetSpec,
    HSpec,
    Hull,
    Indicator,
    Linear,
    Ray,
    ShiftedPSDCap,
    Singleton,
    SpectralSet,
    Support,
    h_conj,
    h_eval,
    project,
    psd_cap_support,
    support,
)
from .numlin import Tolerances, sym

_UNBOUNDED_CUTOFF = -1.0e7


@dataclass(frozen=True)
class InfProjProblem:
    """Data (A, B) plus the perturbation h acting on V; the tolerances
    are pd's.  h = sigma_{U} is stored as the linear h = <U, .> it is."""

    pd: ProblemData
    h: HSpec

    def __post_init__(self):
        if self.h.n != self.pd.n:
            raise ValueError("h must act on n x n symmetric matrices")
        if isinstance(self.h, Support) and isinstance(self.h.set, Singleton):
            object.__setattr__(self, "h", Linear(self.h.set.U))

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
    When unbounded, unbounded_direction is a descent ray, certified on
    "recession", where it starts at V = 0 if ker A = {0}, else at I.
    path names how the value was reached: "spectral", "loewner",
    "conjugate", "ray" or "weighted_nuclear" (closed forms), "recession"
    (a certified ray), all with iters = 0, or "descent" (no linear h).
    """

    value: float
    V: np.ndarray | None = None
    Y: np.ndarray | None = None
    status: str = "finite"
    iters: int = 0
    unbounded_direction: np.ndarray | None = None
    path: str = "descent"


@dataclass
class CQReport:
    """Tri-state verdicts for the five constraint qualifications.

    Each field is "holds", "fails", or "undecided".  pcq/spcq concern
    the perturbation-set condition 0 in ri/int(Omega_2 + dom h*), bpcq
    asks for dom h intersect K_A nonempty and bounded, ccq for
    dom h meeting the interior of K_A, and sccq adds nonemptiness of
    the lifted feasible set Xi(A, B)."""

    pcq: str = "undecided"
    spcq: str = "undecided"
    bpcq: str = "undecided"
    ccq: str = "undecided"
    sccq: str = "undecided"
    notes: list = field(default_factory=list)


def _is_unconstrained(pd: ProblemData) -> bool:
    return pd.A.size == 0 or not np.any(pd.A)


def _ker_trivial(pd: ProblemData) -> bool:
    return pd.N.shape[1] == 0


# ---------------------------------------------------------------------------
# Inner minimization


def _h_subgrad(h: HSpec, V: np.ndarray, tol: Tolerances) -> np.ndarray:
    if isinstance(h, Indicator):
        return np.zeros_like(V)
    _, W = support(h.set, V, tol)
    if W is None:
        raise ValueError("h(V) is infinite")
    return W


def _start_candidates(
    prob: InfProjProblem, rng: np.random.Generator, n_random: int = 40
):
    """Points of dom h worth trying as descent starts / domain witnesses."""
    n = prob.pd.n
    h = prob.h
    tol = prob.tol
    eye = np.eye(n)
    raw = [eye, 0.1 * eye, 10.0 * eye, prob.pd.P, np.zeros((n, n))]
    hull = isinstance(h, (Indicator, Support)) and isinstance(h.set, Hull)
    if isinstance(h, (Indicator, Support)):
        S = h.set
        if hull:
            raw.extend(S.points)
            w = np.full(len(S.points), 1.0 / len(S.points))
            raw.append(sym(sum(wi * U for wi, U in zip(w, S.points))))
        if isinstance(S, ShiftedPSDCap):
            raw.extend([S.U, 0.5 * S.U])
        if isinstance(S, Ray):
            raw.extend([S.D, 2.0 * S.D])
    for _ in range(n_random):
        R = rng.standard_normal((n, n))
        raw.append(R @ R.T)
        if hull:
            w = rng.dirichlet(np.ones(len(h.set.points)))
            raw.append(sym(sum(wi * U for wi, U in zip(w, h.set.points))))
    out = []
    seen = set()
    for V in raw:
        V = project(h.dom, np.atleast_2d(np.asarray(V, float)), tol)
        if not np.isfinite(h_eval(h, V, tol)):
            continue
        tag = hash(np.round(V, 9).tobytes())
        if tag in seen:
            continue
        seen.add(tag)
        out.append(V)
    return out


def _objective(prob: InfProjProblem, X: np.ndarray, V: np.ndarray):
    ge = eval_gmf(prob.pd, X, V)
    if not np.isfinite(ge.value):
        return np.inf, ge
    hv = h_eval(prob.h, V, prob.tol)
    return ge.value + hv, ge


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


def _spectral_path(prob: InfProjProblem, X: np.ndarray) -> InfProjEval | None:
    """Exact p(X) for h = delta_S or sigma_S, S a spectral set, and A = 0.

    p then depends only on the singular values s of X = U diag(s) W^T
    (Lewis's transfer principle).  delta_S: V = U diag(lam) U^T with lam
    water-filled over the eigenvalues of S intersect PSD, Y = V^+ X.
    sigma_S: p = max over W in S of |(2W)^{1/2} X|_*, by von Neumann's
    trace inequality sum s_i sqrt(2 mu_i) at mu = the water-filling of
    s^2; Y = U diag(sqrt(2 mu)) W^T has YY^T/2 in S, and V =
    U diag(s / sqrt(2 mu)) U^T attains p unless some s_i > 0 has mu_i = 0."""
    h = prob.h
    if isinstance(h, Linear) or not (isinstance(h.set, SpectralSet) and _is_unconstrained(prob.pd)):
        return None
    # S intersect PSD has eigenvalues in {0 <= lam_i <= cap, sum <= total};
    # a box with lo > 0 also bounds them below, which the all-cap
    # solution of a budget-free set meets
    cap, total = h.set.cap, h.set.total
    n = X.shape[0]
    if cap < 0.0:  # S misses the PSD cone; sigma_S(tI) = t n cap
        return _ray(np.eye(n)) if isinstance(h, Support) else InfProjEval(np.inf, status="infeasible", path="spectral")
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
    return InfProjEval(value, V=V, Y=(U[:, :k] * y[:k]) @ Wt[:k], path="spectral")


def _loewner_path(prob: InfProjProblem, X: np.ndarray) -> InfProjEval | None:
    """Exact p(X) = phi(X, Vbar) for h = delta_S with S holding a greatest
    element Vbar in the Loewner order, for every A.

    phi(X, .) is a supremum over Y of <X, Y> - <YY^T, V>/2, so it is
    nonincreasing in that order: phi(X, V) >= phi(X, Vbar) on all of S,
    +inf included."""
    h = prob.h
    Vbar = h.set.loewner_max() if isinstance(h, Indicator) else None
    if Vbar is None:
        return None
    ge = eval_gmf(prob.pd, X, Vbar)
    if not np.isfinite(ge.value):
        return InfProjEval(np.inf, status="infeasible", path="loewner")
    return InfProjEval(ge.value, V=Vbar, Y=ge.witness_Y, path="loewner")


def _slope(prob: InfProjProblem) -> np.ndarray | None:
    """The U at which _linear_path gives p: linear h's own, and at A = 0
    for h = sigma_S the greatest element U of S, as sigma_S = <U, .> on
    dom phi(X, .) (PSD).  None elsewhere and at ker A = {0} (see eval_p)."""
    h, pd = prob.h, prob.pd
    if isinstance(h, Linear) and not _ker_trivial(pd):
        return h.U
    return h.conj_dom.loewner_max() if isinstance(h, Support) and _is_unconstrained(pd) else None


def _conjugate_path(prob: InfProjProblem, X: np.ndarray) -> InfProjEval | None:
    """Exact p(X) = <X, Y0> - h*(C0), C0 = Y0 Y0^T/2, for every h when
    ker A = {0}, where phi(X, V) = <X, Y0> - <C0, V> (see the README):
    attained at Y0 and V = argmax <C0, V> - h(V) if h*(C0) is finite,
    else -inf along V = td from 0, d = C0 - proj(C0) onto dom h*, once
    the slope h(d) - <C0, d> is below -feas_abs |d|; None otherwise."""
    pd, h, tol = prob.pd, prob.h, prob.tol
    if not _ker_trivial(pd):
        return None
    C0 = sym(0.5 * pd.Y0 @ pd.Y0.T, tol)
    conj = h_conj(h, C0, tol)
    if np.isfinite(conj):
        V = support(h.set, C0, tol)[1] if isinstance(h, Indicator) else np.zeros_like(C0)
        return InfProjEval(float(np.sum(X * pd.Y0)) - conj, V=V, Y=pd.Y0, path="conjugate")
    d = C0 - project(h.conj_dom, C0, tol)
    return _ray(d) if h_eval(h, d, tol) - float(np.sum(C0 * d)) < -tol.feas_abs * np.linalg.norm(d) else None


def _linear_path(prob: InfProjProblem, X: np.ndarray, U: np.ndarray, with_V: bool = True) -> InfProjEval:
    """Exact p(X) for linear h = <U, .>, ker A != {0}, and for the h that
    _slope reduces to it: a certified ray, or the value with its
    maximizer Y, a point of Xi(A, B) (derived in the README).

    With Q = I - P, R = P U (Q - Y0 Y0^+), K = N^T U (Y0^+)^T, Pi = Y0^+ Y0
    and M = N^T U N - 2 K K^T: p = -inf along V = I + tD for
    D = -(Q (U - Y0 Y0^T/2) Q + R + R^T) unless D = 0, and along an
    eigenvector of M with a negative eigenvalue unless M >= 0.  Otherwise,
    for L = (2M)^{1/2} and the SVD L N^T X (I - Pi) = Qs diag(s) Ws^T,
    p(X) = <X, Y0> + 2 <K, N^T X> + sum(s) at
    Y = Y0 + N (2K + L Qs Ws^T (I - Pi)).  V is returned only for A = 0
    (K = 0, M = U) and U > 0, where the infimum is attained, and only
    with_V (the dual needs Y alone)."""
    pd, tol = prob.pd, prob.tol
    N, Y0 = pd.N, pd.Y0
    free = _is_unconstrained(pd)  # N = I and Y0 = 0: K = 0, M = U
    if not free:
        Q = np.eye(pd.n) - pd.P
        Y0_pinv = np.linalg.pinv(Y0, rcond=tol.rank_rel)
        R = pd.P @ U @ (Q - Y0 @ Y0_pinv)
        D = -(Q @ (U - 0.5 * Y0 @ Y0.T) @ Q + R + R.T)
        if np.linalg.norm(D) > tol.feas_abs * (1.0 + np.linalg.norm(U) + 0.5 * np.linalg.norm(Y0) ** 2):
            return _ray(D)
        K = N.T @ U @ Y0_pinv.T
        off_Y0 = np.eye(pd.m) - Y0_pinv @ Y0
    mu, E = np.linalg.eigh(U if free else N.T @ U @ N - 2.0 * K @ K.T)
    floor = tol.psd_abs * (1.0 + max(abs(mu[0]), abs(mu[-1])))
    if mu[0] < -floor:
        v = N @ E[:, :1]
        W = np.zeros_like(U) if free else -2.0 * v @ (E[:, :1].T @ K) @ Y0_pinv
        return _ray(v @ v.T + W + W.T)
    lam = mu if mu[0] > floor else np.where(mu > floor, mu, 0.0)  # 0 inside the floor
    L = (E * np.sqrt(2.0 * lam)) @ E.T
    Qs, s, Wt = np.linalg.svd(L @ (X if free else N.T @ X @ off_Y0), full_matrices=False)
    if free:
        Rinv_Q = (E / np.sqrt(mu)) @ (E.T @ Qs) if with_V and mu[0] > floor else None
        V = None if Rinv_Q is None else sym((Rinv_Q * (0.5 * s)) @ Rinv_Q.T)
        return InfProjEval(float(s.sum()), V=V, Y=L @ Qs @ Wt, path="weighted_nuclear")
    value = float(np.sum(X * Y0)) + 2.0 * float(np.sum(K * (N.T @ X))) + float(s.sum())
    # off_Y0 keeps singular vectors of rounding-level singular values off rge Y0^T
    Y = Y0 + N @ (2.0 * K + L @ Qs @ Wt @ off_Y0)
    return InfProjEval(value, Y=Y, path="weighted_nuclear")


def _ray(D: np.ndarray) -> InfProjEval:
    return InfProjEval(-np.inf, status="unbounded", unbounded_direction=D / np.linalg.norm(D), path="recession")


def _ray_path(prob: InfProjProblem, X: np.ndarray) -> InfProjEval | None:
    """Exact p(X) for h = sigma_S or delta_S, S the ray pos{D} (D != 0),
    and A = 0, where phi(X, tV) = phi(X, V)/t >= 0.

    sigma_S is the indicator of <D, V> <= 0.  If lambda_min(D) < 0, some
    W > 0 has <D, W> <= 0, so p = 0.  If D >= 0, rge V must lie in ker D,
    so p = 0 when DX = 0 and +inf otherwise.  delta_S leaves V = tD: if
    D >= 0, p = 0 when X vanishes on ker D and +inf otherwise; else S
    meets the PSD cone only in V = 0, so p = 0 when X = 0 and +inf
    otherwise.  No infimum but X = 0's is attained; Y = 0 attains the
    dual."""
    h, tol = prob.h, prob.tol
    if isinstance(h, Linear) or h.set.bounded or not _is_unconstrained(prob.pd):
        return None
    D = h.set.D
    lam, E = np.linalg.eigh(D)
    floor = tol.psd_abs * (1.0 + abs(lam[-1]))
    psd = lam[0] >= -floor
    if isinstance(h, Support):
        feasible = not psd or np.linalg.norm(D @ X) <= tol.feas_abs * (1.0 + np.linalg.norm(D) * np.linalg.norm(X))
    else:  # X must vanish on ker D, or on everything when D is not PSD
        ker = E[:, lam <= floor] if psd else E
        feasible = np.linalg.norm(ker.T @ X) <= tol.feas_abs * (1.0 + np.linalg.norm(X))
    if not feasible:
        return InfProjEval(np.inf, status="infeasible", path="ray")
    return InfProjEval(0.0, Y=np.zeros_like(X), path="ray")


def eval_p(
    prob: InfProjProblem, X: np.ndarray, max_iter: int = 4000, seed: int = 0
) -> InfProjEval:
    """Evaluate p(X) = inf_V phi(X, V) + h(V).

    Closed forms: at A = 0, h = delta_S or sigma_S for a spectral box,
    trace ball or Fantope ("spectral") and for a ray ("ray"); at every A,
    h = delta_S for S with a greatest element V in the Loewner order
    ("loewner"); at ker A = {0}, every h ("conjugate"); and linear h at
    every other A, or sigma_S at A = 0 for S with such a V
    ("weighted_nuclear", see _slope).  p = -inf comes with a certified
    ray ("recession").  Every other case runs projected subgradient
    descent (see _descent)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape != (prob.pd.n, prob.pd.m):
        raise ValueError(f"X must be {prob.pd.n}x{prob.pd.m}, got {X.shape}")
    for path in (_spectral_path, _loewner_path, _conjugate_path, _ray_path):
        out = path(prob, X)
        if out is not None:
            return out
    U = _slope(prob)
    return _descent(prob, X, max_iter, seed) if U is None else _linear_path(prob, X, U)


def _descent(prob: InfProjProblem, X: np.ndarray, max_iter: int, seed: int) -> InfProjEval:
    """Projected subgradient descent on V with Barzilai-Borwein steps and
    backtracking, from the best of a seeded set of starts.  Values below
    -1e7 are reported as unbounded."""
    tol = prob.tol
    rng = np.random.default_rng(seed)
    cheap = (
        isinstance(prob.h, Indicator)
        and prob.h.set.bounded
        and _is_unconstrained(prob.pd)
    )
    n_random = 6 if cheap else 40
    best_V, best_F, best_ge = None, np.inf, None
    for V in _start_candidates(prob, rng, n_random):
        F, ge = _objective(prob, X, V)
        if F < best_F:
            best_V, best_F, best_ge = V, F, ge
    if best_V is None or not np.isfinite(best_F):
        return InfProjEval(np.inf, status="infeasible")
    start_V = best_V

    V, F, ge = best_V, best_F, best_ge
    dom = prob.h.dom
    g = -0.5 * ge.witness_Y @ ge.witness_Y.T + _h_subgrad(prob.h, V, tol)
    t = 1.0 / (1.0 + np.linalg.norm(g))
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        accepted = False
        tt = t
        for _ in range(40):
            V_new = project(dom, V - tt * g, tol)
            F_new, ge_new = _objective(prob, X, V_new)
            step = np.linalg.norm(V_new - V)
            if F_new <= F - 1.0e-4 / max(tt, 1e-300) * step**2 and step > 0:
                accepted = True
                break
            tt *= 0.5
        if not accepted:
            break
        g_new = -0.5 * ge_new.witness_Y @ ge_new.witness_Y.T + _h_subgrad(
            prob.h, V_new, tol
        )
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
                -np.inf, status="unbounded", iters=it, unbounded_direction=D
            )
        if stall >= 8:
            break
        if np.linalg.norm(s) <= 1e-12 * (1.0 + np.linalg.norm(V)):
            break
    return InfProjEval(F, V=V, Y=ge.witness_Y, status="finite", iters=it)


def dom_p_member(prob: InfProjProblem, X: np.ndarray):
    """Search for V in dom h with phi(X, V) finite, certifying X in dom p.

    Returns (found, V, status): status is "witness" on success,
    "sampled" on failure (the search is a sampling procedure, so a
    negative answer is evidence rather than proof), and "exhaustive" on a
    failure that is proof: h the indicator of a set with a greatest
    element Vbar in the Loewner order, where X lies in dom p iff
    phi(X, Vbar) is finite (see _loewner_path); V = I witnesses linear h.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(prob.h, Linear):
        return True, np.eye(prob.pd.n), "witness"
    loewner = _loewner_path(prob, X)
    if loewner is not None:
        if loewner.V is None:
            return False, None, "exhaustive"
        return True, loewner.V, "witness"
    rng = np.random.default_rng(0)
    for V in _start_candidates(prob, rng):
        F, _ = _objective(prob, X, V)
        if np.isfinite(F):
            return True, V, "witness"
    return False, None, "sampled"


# ---------------------------------------------------------------------------
# sigma over S intersect K_A


def sigma_S_cap_KA(prob: InfProjProblem, S: ConvexSetSpec, G: np.ndarray):
    """Support function of S intersect K_A.  Returns (value, witness, status)."""
    tol = prob.tol
    pd = prob.pd
    if _ker_trivial(pd):
        val, W = support(S, G, tol)
        return val, W, "exact"
    if _is_unconstrained(pd):
        try:
            val, W = psd_cap_support(S, G, tol)
        except NotImplementedError:
            return np.nan, None, "undecided"
        return val, W, "exact"
    # decidable when S sits inside K_A
    if S.inside_KA(pd):
        val, W = support(S, G, tol)
        return val, W, "exact"
    return np.nan, None, "undecided"


# ---------------------------------------------------------------------------
# Conjugate and the lifted feasible set


def xi_member(prob: InfProjProblem, Y: np.ndarray):
    """Membership of Y in the lifted feasible set
    Xi(A, B) = {Y : AY = B, YY^T/2 in dom h* + (K_A polar)}.

    Returns (answer, status); answer is None when status is "undecided".
    After the equality test, dom h*'s covers rule decides the rest.
    """
    tol, pd = prob.tol, prob.pd
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if np.linalg.norm(pd.A @ Y - pd.B) > tol.feas_abs * (1.0 + np.linalg.norm(pd.B)):
        return False, "exact"
    ans = prob.h.conj_dom.covers(sym(0.5 * Y @ Y.T, tol), pd)
    return ans, ("undecided" if ans is None else "exact")


def eval_p_conj(prob: InfProjProblem, Y: np.ndarray):
    """Conjugate p*(Y) through the lifted representation
    p*(Y) = inf{h*(W) : AY = B, YY^T/2 - W in the polar of K_A}.

    Returns (value, status); exact for linear h, for indicator h when
    the support of S intersect K_A is available in closed form, and for
    support-type h when the lifted membership is decidable."""
    pd = prob.pd
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    h = prob.h
    if isinstance(h, Indicator):
        if not np.linalg.norm(pd.A @ Y - pd.B) <= prob.tol.feas_abs * (1.0 + np.linalg.norm(pd.B)):
            return np.inf, "exact"
        val, _, status = sigma_S_cap_KA(prob, h.set, Y @ Y.T)
        if status != "exact":
            return np.nan, "undecided"
        return 0.5 * val, "exact"
    # h* is the indicator of {U} or of S, so p* is the indicator of Xi(A, B)
    ans, status = xi_member(prob, Y)
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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = _slope(prob)
    return _dual_at(prob, X, eval_p(prob, X) if U is None else _linear_path(prob, X, U, with_V=False))


def _dual_at(prob: InfProjProblem, X: np.ndarray, pe: InfProjEval):
    """The dual objective at pe's Y (see dual_value)."""
    if isinstance(prob.h, Linear) or pe.path == "recession":
        return pe.value, pe.Y, "exact"
    if pe.Y is None:
        return np.nan, None, "undecided"
    pstar, status = eval_p_conj(prob, pe.Y)
    if status != "exact" or not np.isfinite(pstar):
        return np.nan, None, "undecided"
    return float(np.sum(X * pe.Y)) - pstar, pe.Y, "numeric"


def dual_gap(prob: InfProjProblem, X: np.ndarray):
    """(p(X), dual value, gap, status) from one eval_p; the gap is 0 when
    rays certify both -inf.  For h not linear the gap is the Fenchel gap
    p(X) + p*(Y) - <X, Y> at eval_p's Y, as subdiff_p_witness reports."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pe = eval_p(prob, X)
    dv, _, status = _dual_at(prob, X, pe)
    if status == "exact" and pe.value == dv == -np.inf:
        return pe.value, dv, 0.0, status
    if status == "undecided" or not np.isfinite(pe.value):
        return pe.value, dv, np.nan, "undecided"
    return pe.value, dv, pe.value - dv, status


def subdiff_p_witness(prob: InfProjProblem, X: np.ndarray):
    """Subgradient Y of p at X with its Fenchel gap p(X) + p*(Y) - <X, Y>.

    Returns (Y, gap, status)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pe = eval_p(prob, X)
    if pe.status != "finite":
        raise ValueError(f"p(X) is not finite (status {pe.status})")
    Y = pe.Y
    pstar, status = eval_p_conj(prob, Y)
    if status != "exact":
        return Y, np.nan, "undecided"
    gap = pe.value + pstar - float(np.sum(X * Y))
    return Y, gap, "exact"


# ---------------------------------------------------------------------------
# Constraint qualifications


def _tri(flag: bool | None) -> str:
    return "undecided" if flag is None else "holds" if flag else "fails"


def _lambda_rule(s: float, exact: bool, tol: Tolerances) -> str:
    """A set meets a cone's interior iff its max_min_eig s > psd_abs."""
    return _tri(True if s > tol.psd_abs else False if exact else None)


def cq_report(prob: InfProjProblem) -> CQReport:
    """Decide the five constraint qualifications from dom h and dom h*
    (h.dom, h.conj_dom), each tested against K_A and Omega_2; report
    "undecided" where a set rule cannot decide (see the README)."""
    tol, pd, h = prob.tol, prob.pd, prob.h
    rep = CQReport()
    n = pd.n
    zero = np.zeros((n, n))
    unconstrained = _is_unconstrained(pd)
    ker_trivial = _ker_trivial(pd)
    dom, conj_dom = h.dom, h.conj_dom
    # where _linear_path applies, Xi(A, B) is empty exactly when it finds a ray
    U = _slope(prob)
    lin = None if U is None else _linear_path(prob, np.zeros((n, pd.m)), U, with_V=False)
    xi_empty = lin is not None and lin.status == "unbounded"

    # ---- CCQ: dom h meets int K_A
    s, exact = (np.inf, True) if ker_trivial else dom.max_min_eig(zero, pd.N)
    rep.ccq = _lambda_rule(s, exact, tol)

    # ---- BPCQ: dom h intersect K_A nonempty and bounded
    nonempty = True if s >= -tol.psd_abs else False if exact else None
    rep.bpcq = _tri(nonempty if dom.ka_bounded(pd) else False)

    # ---- PCQ / SPCQ: 0 in ri / int (Omega_2 + dom h*)
    if xi_empty:  # -U in Omega_2 would be a point of Xi(A, B)
        rep.pcq = rep.spcq = "fails"
    elif ker_trivial:  # Omega_2 is the singleton {-C0}
        ri, interior = conj_dom.interior_member(0.5 * pd.Y0 @ pd.Y0.T, tol)
        rep.pcq, rep.spcq = _tri(ri), _tri(interior)
    elif unconstrained and isinstance(h, Indicator):
        # bounded perturbation equivalence: pcq = spcq = bpcq here
        rep.pcq = rep.spcq = rep.bpcq
        rep.notes.append("pcq/spcq matched to bpcq (indicator case with no equality constraint)")
    elif unconstrained:  # Omega_2 is the negative semidefinite cone
        rep.pcq = rep.spcq = _lambda_rule(*conj_dom.max_min_eig(zero, np.eye(n)), tol)
    elif conj_dom.full:
        rep.pcq = rep.spcq = "holds"

    # implication chain upgrades
    if rep.bpcq == "holds":
        rep.spcq = "holds"
    if rep.spcq == "holds":
        rep.pcq = "holds"
    if rep.pcq == "fails":
        rep.spcq = "fails"
    if rep.spcq == "fails" and rep.bpcq == "undecided":
        rep.bpcq = "fails"

    # ---- SCCQ: CCQ plus nonemptiness of Xi(A, B)
    if rep.ccq != "holds":
        rep.sccq = rep.ccq
    elif lin is not None:
        rep.sccq = _tri(not xi_empty)
    else:
        # Y0 is the only point of {AY = B} when ker A = {0}; with A = 0,
        # Y0 = 0 lies in Xi(A, B) whenever some Y does (YY^T/2 >= 0)
        ans, status = xi_member(prob, pd.Y0)
        decided = status == "exact" and (ans or ker_trivial or unconstrained)
        rep.sccq = _tri(bool(ans) if decided else None)
        if rep.sccq == "undecided":
            rep.notes.append("sccq: Y0 = A^+ B is not a certified point of Xi(A, B)")
    return rep
