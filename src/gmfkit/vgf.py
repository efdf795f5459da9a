"""Variational Gram functions and Ky Fan norms.

Phi_S(Y) = sup{<V, YY^T>/2 : V in S intersect PSD} and its conjugate
Phi*_S(X) = inf{tr(X^T V^+ X)/2 : V in S intersect PSD, rge X in rge V}.
The squared-gauge decomposition and the Ky Fan identity
|Y|_{2,k}^2 / 2 = Phi over the rank-k Fantope are exposed as checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gmf import ProblemData
from .hset import (
    ConvexSetSpec,
    Fantope,
    Indicator,
    ShiftedPSDCap,
    Singleton,
    SpectralBox,
    TraceBall,
)
from .infproj import InfProjProblem, _eval_p
from .numlin import DEFAULT_TOL, Tolerances, _rect, psd_sqrt, sv


@dataclass(frozen=True)
class VgfInstance:
    """A Gram penalty Phi over n x m matrices, driven by the set, with
    the A = 0 infimal projection behind its conjugate built once."""

    set: ConvexSetSpec
    m: int
    tol: Tolerances = DEFAULT_TOL
    prob: InfProjProblem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pd = ProblemData(np.zeros((1, self.n)), np.zeros((1, self.m)), self.tol)
        object.__setattr__(self, "prob", InfProjProblem(pd, Indicator(self.set)))
        if self.prob._ka_slack < -self.tol.psd_abs:  # the CCQ slack at A = 0: S misses PSD
            raise ValueError("the set must meet the PSD cone")

    @property
    def n(self) -> int:
        return self.set.n


@dataclass(frozen=True)
class KyFanParams:
    """(p, k) norm parameters; p may be inf."""

    p: float
    k: int

    def __post_init__(self):
        if not self.p >= 1:  # NaN included
            raise ValueError("need p >= 1")
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError("need an integer k >= 1")


def vgf_eval(inst: VgfInstance, Y: np.ndarray):
    """Phi(Y) with the maximizing V.  Returns (value, V); the value is
    +inf only where the slice is unbounded, nan (undecided) where a
    hull's cuts run out, and a YY^T that overflows raises ValueError."""
    return _vgf_eval(inst, _rect(Y, (inst.n, inst.m), "Y"))


def _vgf_eval(inst: VgfInstance, Y: np.ndarray):
    G = Y @ Y.T
    if not np.isfinite(G).all():
        raise ValueError("YY^T overflows: Y is finite but YY^T is not")
    val, V = inst.set.psd_cap_support(0.5 * (G + G.T), inst.tol)
    return 0.5 * val, V


def vgf_conj(inst: VgfInstance, X: np.ndarray):
    """Phi*(X) by minimizing the matrix-fractional term over the set
    (in closed form for the spectral box, trace ball and Fantope).

    Returns (value, V); +inf when no feasible V covers the range of X."""
    pe = _eval_p(inst.prob, _rect(X, (inst.n, inst.m)))
    if pe.status == "infeasible":
        return np.inf, None
    if pe.status != "finite":
        raise RuntimeError(f"unexpected conjugate status {pe.status}")
    return pe.value, pe.V


def vgf_subdiff(inst: VgfInstance, Y: np.ndarray):
    """A subgradient X = V Y of Phi at Y (V the support maximizer), with
    its Fenchel gap Phi(Y) + Phi*(X) - <X, Y>.

    The gap uses the feasible upper bound Phi*(X) <= tr(X^T V^+ X)/2,
    tight at the support maximizer.  Returns (X, V, gap)."""
    if not inst.set.ka_bounded(inst.prob.pd):
        raise ValueError(
            "subdifferential witness requires a bounded PSD slice; "
            "unbounded slices can make the subdifferential empty"
        )
    Y = _rect(Y, (inst.n, inst.m), "Y")
    phi, V = _vgf_eval(inst, Y)
    if not np.isfinite(phi):  # a bounded slice has a finite support; nan: a hull's cuts ran out
        raise ValueError(f"Phi(Y) {'is undecided' if np.isnan(phi) else 'overflows'}: YY^T is finite but Phi(Y) is {phi}")
    X = V @ Y
    conj_ub = 0.5 * float(np.sum(X * (np.linalg.pinv(V, rcond=inst.tol.rank_rel) @ X)))
    gap = phi + conj_ub - float(np.sum(X * Y))
    return X, V, gap


def gauge_factor_sup(inst: VgfInstance, Y: np.ndarray) -> float:
    """sigma_F(Y) = sup{|L^T Y|_F : L L^T in the PSD slice of the set},
    the support radius of the factor set behind Phi."""
    return _sigma_F(_vgf_eval(inst, _rect(Y, (inst.n, inst.m), "Y"))[0])


def _sigma_F(phi: float) -> float:
    """sigma_F(Y) = (2 Phi(Y))^{1/2}."""
    return np.inf if np.isinf(phi) else float(np.sqrt(max(2.0 * phi, 0.0)))  # nan stays nan


def vgf_gauge_decomp(inst: VgfInstance, Y: np.ndarray):
    """Squared-gauge decomposition Phi(Y) = sigma_F(Y)^2 / 2.

    Returns (sigma_F value, consistent flag) plus per-variant closed
    forms in the detail dict."""
    Y = _rect(Y, (inst.n, inst.m), "Y")
    S = inst.set
    phi, _ = _vgf_eval(inst, Y)
    generic = _sigma_F(phi)
    closed = None
    if isinstance(S, SpectralBox) and S.lo <= 0.0 <= S.hi:
        closed = float(np.sqrt(S.hi) * np.linalg.norm(Y))
    elif isinstance(S, TraceBall):
        s = sv(Y)
        closed = float(np.sqrt(S.r) * (s[0] if s.size else 0.0))
    elif isinstance(S, Fantope):
        closed = _kyfan(KyFanParams(2.0, S.k), Y)
    elif isinstance(S, Singleton):
        closed = float(np.linalg.norm(psd_sqrt(S.U) @ Y))
    elif isinstance(S, ShiftedPSDCap):
        R = psd_sqrt(S.U)
        lam = np.clip(np.linalg.eigvalsh(R @ Y @ Y.T @ R), 0.0, None)
        closed = float(np.sqrt(np.sum(lam)))
    if np.isfinite(phi):
        consistent = abs(phi - 0.5 * generic**2) <= inst.tol.conj_rel * (1.0 + abs(phi))
    else:  # nan (a hull's cuts ran out) is not consistent
        consistent = np.isinf(phi) and not np.isfinite(generic)
    detail = {"sup_frobenius": generic, "closed_form": closed, "phi": phi}
    if closed is not None and np.isfinite(generic):
        consistent = consistent and abs(generic - closed) <= inst.tol.conj_rel * (
            1.0 + abs(closed)
        )
    return generic, consistent, detail


def kyfan_norm(params: KyFanParams, X: np.ndarray) -> float:
    """(sum of the p-th powers of the k largest singular values)^(1/p)."""
    return _kyfan(params, _rect(X))


def _kyfan(params: KyFanParams, X: np.ndarray) -> float:
    if params.k > min(X.shape):
        raise ValueError("need k <= min(n, m)")
    s = sv(X)[: params.k]
    if np.isinf(params.p):
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s**params.p) ** (1.0 / params.p))


def kyfan_vgf_identity(params: KyFanParams, X: np.ndarray):
    """Check |X|_{2,k}^2 / 2 against Phi over the rank-k Fantope.

    Requires p = 2.  Returns (lhs, rhs, ok)."""
    if params.p != 2:
        raise ValueError("identity holds for p = 2")
    X = _rect(X)
    lhs = 0.5 * _kyfan(params, X) ** 2
    inst = VgfInstance(Fantope(params.k, X.shape[0]), X.shape[1])
    rhs, _ = _vgf_eval(inst, X)
    ok = abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))
    return lhs, rhs, ok
