"""Computable convex subsets of the symmetric matrices and the
perturbation functions h built from them.

The set family is a closed enumeration: each variant admits exact
support functions, membership tests, gauges, and Euclidean projections,
which is what makes the downstream constraint-qualification checks
decidable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .numlin import (
    DEFAULT_TOL,
    Tolerances,
    max_eig,
    min_eig,
    pinv,
    psd_sqrt,
    range_contains,
    sym,
    sym_eig,
)


# ---------------------------------------------------------------------------
# Set variants


@dataclass(frozen=True)
class Singleton:
    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", sym(self.U))

    @property
    def n(self) -> int:
        return self.U.shape[0]


class SpectralSet:
    """{V : lambda(V) in C} for the permutation-invariant vector set
    C = {lo <= lambda_i <= cap, sum lambda_i <= total}.

    By Lewis's transfer principle the support function, membership,
    projection and gauge of such a set are each one rule on the sorted
    eigenvalues, so the subclasses only validate their arguments and
    supply (lo, cap, total)."""

    lo: float
    cap: float
    total: float


@dataclass(frozen=True)
class SpectralBox(SpectralSet):
    """{V : lo*I <= V <= hi*I} in the semidefinite order."""

    lo: float
    hi: float
    n: int

    cap = property(lambda self: self.hi)
    total = np.inf

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("spectral box bounds must be finite")
        if self.lo > self.hi:
            raise ValueError("need lo <= hi")


@dataclass(frozen=True)
class TraceBall(SpectralSet):
    """{V >= 0 : tr V <= r}."""

    r: float
    n: int

    lo = 0.0
    cap = np.inf
    total = property(lambda self: self.r)

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("trace ball radius must be nonnegative")


@dataclass(frozen=True)
class Fantope(SpectralSet):
    """{0 <= V <= I, tr V <= k}."""

    k: int
    n: int

    lo = 0.0
    cap = 1.0
    total = property(lambda self: float(self.k))

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ValueError("need 1 <= k <= n")


@dataclass(frozen=True)
class Hull:
    """Convex hull of finitely many symmetric matrices."""

    points: tuple

    def __init__(self, points):
        pts = tuple(sym(U) for U in points)
        if not pts:
            raise ValueError("hull needs at least one point")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points[0].shape[0]


@dataclass(frozen=True)
class Ray:
    """pos{D} = {alpha * D : alpha >= 0}."""

    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "D", sym(self.D))

    @property
    def n(self) -> int:
        return self.D.shape[0]


@dataclass(frozen=True)
class ShiftedPSDCap:
    """{V : 0 <= V <= U}."""

    U: np.ndarray

    def __post_init__(self):
        U = sym(self.U)
        if min_eig(U) < -DEFAULT_TOL.psd_abs * (1.0 + np.linalg.norm(U)):
            raise ValueError("cap bound U must be positive semidefinite")
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        return self.U.shape[0]


ConvexSetSpec = Singleton | SpectralBox | TraceBall | Fantope | Hull | Ray | ShiftedPSDCap


# ---------------------------------------------------------------------------
# Perturbation functions h


@dataclass(frozen=True)
class Linear:
    """h = <U, .>"""

    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", sym(self.U))

    @property
    def n(self) -> int:
        return self.U.shape[0]


@dataclass(frozen=True)
class Indicator:
    """h = delta_S"""

    set: ConvexSetSpec

    @property
    def n(self) -> int:
        return self.set.n


@dataclass(frozen=True)
class Support:
    """h = sigma_S"""

    set: ConvexSetSpec

    @property
    def n(self) -> int:
        return self.set.n


HSpec = Linear | Indicator | Support


# ---------------------------------------------------------------------------
# Basic predicates


def is_bounded(S: ConvexSetSpec) -> bool:
    if isinstance(S, Ray):
        return not np.any(S.D)
    return True


def contains_zero(S: ConvexSetSpec, tol: Tolerances = DEFAULT_TOL) -> bool:
    if isinstance(S, Singleton):
        return not np.any(np.abs(S.U) > tol.feas_abs)
    if isinstance(S, SpectralSet):
        return S.lo <= 0.0 <= S.cap
    if isinstance(S, (Ray, ShiftedPSDCap)):
        return True
    return member(S, np.zeros((S.n, S.n)), tol)


# ---------------------------------------------------------------------------
# Support functions


def _spectral_support(G: np.ndarray, lo: float, cap: float, total: float):
    """Support of {V : lambda(V) in C} at G with its maximizer: every
    eigenvalue starts at lo, and those facing the positive eigenvalues of
    G are raised to the cap, largest first, until the budget
    total - n*lo runs out (a fractional knapsack)."""
    w, Q = sym_eig(G)
    budget = total - w.size * lo
    step = min(cap - lo, budget)  # the rise to the cap, or all the budget
    lam = np.minimum(cap, np.maximum(lo, (lo + budget) - step * np.arange(w.size)))
    lam = np.where(w > 0.0, lam, lo)
    return float(lam @ w), (Q * lam) @ Q.T


def support(S: ConvexSetSpec, G: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """sigma_S(G) = sup_{V in S} <V, G> with a maximizer when finite.

    Returns (value, witness); witness is None when the value is +inf.
    """
    G = sym(G, tol)
    n = S.n
    if G.shape[0] != n:
        raise ValueError("dimension mismatch")
    if isinstance(S, Singleton):
        return float(np.sum(S.U * G)), S.U
    if isinstance(S, SpectralSet):
        return _spectral_support(G, S.lo, S.cap, S.total)
    if isinstance(S, Hull):
        vals = [float(np.sum(U * G)) for U in S.points]
        j = int(np.argmax(vals))
        return vals[j], S.points[j]
    if isinstance(S, Ray):
        ip = float(np.sum(S.D * G))
        scale = 1.0 + np.linalg.norm(S.D) * np.linalg.norm(G)
        if ip <= tol.feas_abs * scale:
            return 0.0, np.zeros((n, n))
        return np.inf, None
    if isinstance(S, ShiftedPSDCap):
        R = psd_sqrt(S.U)
        w, Q = sym_eig(R @ G @ R)
        Pi = (Q * (w > 0.0)) @ Q.T
        V = sym(R @ Pi @ R)
        return float(np.sum(np.clip(w, 0.0, None))), V
    raise TypeError(f"unknown set variant {type(S).__name__}")


def psd_cap_support(S: ConvexSetSpec, G: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """sigma_{S \\cap PSD}(G) with maximizer; -inf if the intersection is empty."""
    G = sym(G, tol)
    n = S.n
    if G.shape[0] != n:
        raise ValueError("dimension mismatch")
    scale = lambda M: 1.0 + np.linalg.norm(M)
    if isinstance(S, Singleton):
        if min_eig(S.U) < -tol.psd_abs * scale(S.U):
            return -np.inf, None
        return float(np.sum(S.U * G)), S.U
    if isinstance(S, SpectralSet):
        # the same set with lo replaced by max(lo, 0); empty when cap < 0
        if S.cap < 0.0:
            return -np.inf, None
        return _spectral_support(G, max(S.lo, 0.0), S.cap, S.total)
    if isinstance(S, ShiftedPSDCap):
        return support(S, G, tol)
    if isinstance(S, Hull):
        psd_flags = [min_eig(U) >= -tol.psd_abs * scale(U) for U in S.points]
        if all(psd_flags):
            return support(S, G, tol)
        if not any(psd_flags):
            raise NotImplementedError(
                "support over a mixed hull intersected with the PSD cone"
            )
        pts = [U for U, ok in zip(S.points, psd_flags) if ok]
        # PSD vertices span only part of the intersection; exact for the
        # test sets used here, which never mix signs off the PSD face.
        return support(Hull(pts), G, tol)
    if isinstance(S, Ray):
        if min_eig(S.D) < -tol.psd_abs * scale(S.D):
            return 0.0, np.zeros((n, n))
        return support(S, G, tol)
    raise TypeError(f"unknown set variant {type(S).__name__}")


def psd_cap_nonempty(S: ConvexSetSpec, tol: Tolerances = DEFAULT_TOL) -> bool:
    val, _ = psd_cap_support(S, np.zeros((S.n, S.n)), tol)
    return np.isfinite(val)


def psd_cap_bounded(S: ConvexSetSpec, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether S intersect PSD is bounded."""
    if isinstance(S, Ray):
        D = S.D
        return (not np.any(D)) or min_eig(D) < -tol.psd_abs * (1 + np.linalg.norm(D))
    return True


# ---------------------------------------------------------------------------
# Membership and projection


def _hull_weights(S: Hull, V: np.ndarray):
    vecs = np.column_stack([U.ravel() for U in S.points])
    alpha = 10.0 * (1.0 + np.linalg.norm(V))
    Aeq = np.vstack([vecs, alpha * np.ones((1, len(S.points)))])
    beq = np.concatenate([V.ravel(), [alpha]])
    w, _ = scipy.optimize.nnls(Aeq, beq)
    s = w.sum()
    if s > 0:
        w = w / s
    return w


def member(S: ConvexSetSpec, V: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    V = sym(V, tol)
    scale = 1.0 + np.linalg.norm(V)
    if isinstance(S, Singleton):
        return np.linalg.norm(V - S.U) <= tol.feas_abs * (1.0 + np.linalg.norm(S.U))
    if isinstance(S, SpectralSet):
        w = np.linalg.eigvalsh(V)
        return (
            w[0] >= S.lo - tol.psd_abs * scale
            and w[-1] <= S.cap + tol.psd_abs * scale
            and w.sum() <= S.total + tol.feas_abs * (1.0 + S.total)
        )
    if isinstance(S, Hull):
        w = _hull_weights(S, V)
        approx = sum(wi * U for wi, U in zip(w, S.points))
        return np.linalg.norm(approx - V) <= tol.feas_abs * scale
    if isinstance(S, Ray):
        if not np.any(S.D):
            return np.linalg.norm(V) <= tol.feas_abs
        a = float(np.sum(S.D * V) / np.sum(S.D * S.D))
        a = max(a, 0.0)
        return np.linalg.norm(V - a * S.D) <= tol.feas_abs * scale
    if isinstance(S, ShiftedPSDCap):
        su = 1.0 + np.linalg.norm(S.U)
        return min_eig(V) >= -tol.psd_abs * scale and min_eig(S.U - V) >= -tol.psd_abs * su
    raise TypeError(f"unknown set variant {type(S).__name__}")


def _project_capped_simplex(w, cap, total):
    """Project w onto {0 <= x <= cap, sum x <= total} (total >= 0).

    The projection is clip(w - tau, 0, cap) for some tau >= 0.  When the
    budget binds, tau solves g(tau) = sum clip(w - tau, 0, cap) = total;
    g is nonincreasing and linear between the sorted breakpoints w_i and
    w_i - cap, so tau is interpolated exactly on the piece where g
    crosses the budget."""
    x = np.clip(w, 0.0, cap)
    if x.sum() <= total:
        return x
    bp = np.concatenate([[0.0], w, w - cap])
    bp = np.unique(bp[np.isfinite(bp) & (bp >= 0.0)])
    g = np.clip(w[None, :] - bp[:, None], 0.0, cap).sum(axis=1)
    j = int(np.argmax(g <= total))  # g(0) > total >= g(max w) = 0, so j >= 1
    a, b = bp[j - 1], bp[j]
    tau = a + (g[j - 1] - total) * (b - a) / (g[j - 1] - g[j])
    return np.clip(w - tau, 0.0, cap)


def project(S: ConvexSetSpec, V: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Euclidean projection onto S (Dykstra for the general cap)."""
    V = sym(V, tol)
    if isinstance(S, Singleton):
        return S.U.copy()
    if isinstance(S, SpectralSet):
        w, Q = sym_eig(V)
        shifted = _project_capped_simplex(w - S.lo, S.cap - S.lo, S.total - w.size * S.lo)
        return (Q * (S.lo + shifted)) @ Q.T
    if isinstance(S, Hull):
        w = _hull_weights(S, V)
        return sym(sum(wi * U for wi, U in zip(w, S.points)))
    if isinstance(S, Ray):
        if not np.any(S.D):
            return np.zeros_like(V)
        a = max(0.0, float(np.sum(S.D * V) / np.sum(S.D * S.D)))
        return a * S.D
    if isinstance(S, ShiftedPSDCap):
        X = V.copy()
        p = np.zeros_like(V)
        q = np.zeros_like(V)
        for _ in range(200):
            w, Q = sym_eig(X + p)
            Y = (Q * np.clip(w, 0.0, None)) @ Q.T
            p = X + p - Y
            w, Q = sym_eig(S.U - (Y + q))
            Xn = S.U - (Q * np.clip(w, 0.0, None)) @ Q.T
            q = Y + q - Xn
            if np.linalg.norm(Xn - X) <= 1e-12 * (1.0 + np.linalg.norm(X)):
                X = Xn
                break
            X = Xn
        return sym(X)
    raise TypeError(f"unknown set variant {type(S).__name__}")


# ---------------------------------------------------------------------------
# Gauge


def gauge(S: ConvexSetSpec, G: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """Minkowski gauge inf{t >= 0 : G in t*S}; requires 0 in S.

    Exact for every variant, and +inf when G lies outside the cone
    generated by S."""
    G = sym(G, tol)
    if not contains_zero(S, tol):
        raise ValueError("gauge requires 0 in S")
    if not np.any(np.abs(G) > 0.0):
        return 0.0
    slack = tol.psd_abs * (1.0 + np.linalg.norm(G))
    if isinstance(S, SpectralSet):
        # G in t*S iff lambda_max <= t*cap, lambda_min >= t*lo, sum <= t*total
        w = np.linalg.eigvalsh(G)
        num = np.array([w[-1], -w[0], w.sum()])
        den = np.array([S.cap, -S.lo, S.total])
        if np.any((num > slack) & (den == 0.0)):
            return np.inf
        return max(0.0, float(np.max(np.divide(num, den, out=np.zeros(3), where=den > 0.0))))
    if isinstance(S, (Singleton, Ray)):
        # cones (a singleton holding 0 is {0}): t*S = S for every t > 0
        return 0.0 if member(S, G, tol) else np.inf
    if isinstance(S, ShiftedPSDCap):
        # G in t*S iff 0 <= G <= t*U
        if min_eig(G) < -slack or not range_contains(S.U, G, tol):
            return np.inf
        Rp = pinv(psd_sqrt(S.U), tol)
        return max(0.0, max_eig(Rp @ G @ Rp))
    if isinstance(S, Hull):
        # 0 in S, so G in t*S iff G = sum mu_i U_i with mu >= 0, sum mu <= t
        iu = np.triu_indices(S.n)
        res = scipy.optimize.linprog(
            np.ones(len(S.points)),
            A_eq=np.column_stack([U[iu] for U in S.points]),
            b_eq=G[iu],
            bounds=(0.0, None),
            method="highs",
        )
        if res.status == 2:
            return np.inf
        if res.status != 0:
            raise RuntimeError(f"hull gauge LP failed: {res.message}")
        return float(res.fun)
    raise TypeError(f"unknown set variant {type(S).__name__}")


# ---------------------------------------------------------------------------
# h and h*


def h_eval(h: HSpec, V: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    V = sym(V, tol)
    if isinstance(h, Linear):
        return float(np.sum(h.U * V))
    if isinstance(h, Indicator):
        return 0.0 if member(h.set, V, tol) else np.inf
    if isinstance(h, Support):
        return support(h.set, V, tol)[0]
    raise TypeError(f"unknown h variant {type(h).__name__}")


def h_conj(h: HSpec, W: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """Conjugate of h: Linear(U)* = delta_{U}, Indicator(S)* = sigma_S,
    Support(S)* = delta_S."""
    W = sym(W, tol)
    if isinstance(h, Linear):
        ok = np.linalg.norm(W - h.U) <= tol.feas_abs * (1.0 + np.linalg.norm(h.U))
        return 0.0 if ok else np.inf
    if isinstance(h, Indicator):
        return support(h.set, W, tol)[0]
    if isinstance(h, Support):
        return 0.0 if member(h.set, W, tol) else np.inf
    raise TypeError(f"unknown h variant {type(h).__name__}")


# ---------------------------------------------------------------------------
# JSON serialization (tagged by variant)


def set_to_json(S: ConvexSetSpec) -> dict:
    if isinstance(S, Singleton):
        return {"kind": "singleton", "U": S.U.tolist()}
    if isinstance(S, SpectralBox):
        return {"kind": "spectral_box", "lo": S.lo, "hi": S.hi, "n": S.n}
    if isinstance(S, TraceBall):
        return {"kind": "trace_ball", "r": S.r, "n": S.n}
    if isinstance(S, Fantope):
        return {"kind": "fantope", "k": S.k, "n": S.n}
    if isinstance(S, Hull):
        return {"kind": "hull", "points": [U.tolist() for U in S.points]}
    if isinstance(S, Ray):
        return {"kind": "ray", "D": S.D.tolist()}
    if isinstance(S, ShiftedPSDCap):
        return {"kind": "psd_cap", "U": S.U.tolist()}
    raise TypeError(f"unknown set variant {type(S).__name__}")


def set_from_json(d: dict) -> ConvexSetSpec:
    kind = d.get("kind")
    if kind == "singleton":
        return Singleton(np.array(d["U"], dtype=float))
    if kind == "spectral_box":
        return SpectralBox(float(d["lo"]), float(d["hi"]), int(d["n"]))
    if kind == "trace_ball":
        return TraceBall(float(d["r"]), int(d["n"]))
    if kind == "fantope":
        return Fantope(int(d["k"]), int(d["n"]))
    if kind == "hull":
        return Hull([np.array(U, dtype=float) for U in d["points"]])
    if kind == "ray":
        return Ray(np.array(d["D"], dtype=float))
    if kind == "psd_cap":
        return ShiftedPSDCap(np.array(d["U"], dtype=float))
    raise ValueError(f"unknown set tag {kind!r}")


def hspec_to_json(h: HSpec) -> dict:
    if isinstance(h, Linear):
        return {"kind": "linear", "U": h.U.tolist()}
    if isinstance(h, Indicator):
        return {"kind": "indicator", "set": set_to_json(h.set)}
    if isinstance(h, Support):
        return {"kind": "support", "set": set_to_json(h.set)}
    raise TypeError(f"unknown h variant {type(h).__name__}")


def hspec_from_json(d: dict) -> HSpec:
    kind = d.get("kind")
    if kind == "linear":
        return Linear(np.array(d["U"], dtype=float))
    if kind == "indicator":
        return Indicator(set_from_json(d["set"]))
    if kind == "support":
        return Support(set_from_json(d["set"]))
    raise ValueError(f"unknown h tag {kind!r}")
