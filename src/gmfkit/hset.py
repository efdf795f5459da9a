"""Computable convex subsets of the symmetric matrices and the
perturbation functions h built from them.

The set family is a closed enumeration: each variant admits exact
support functions, membership tests, gauges, and Euclidean projections,
which is what makes the downstream constraint-qualification checks
decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .numlin import DEFAULT_TOL, Tolerances, max_eig, min_eig, psd_sqrt, sym, sym_eig


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


@dataclass(frozen=True)
class SpectralBox:
    """{V : lo*I <= V <= hi*I} in the semidefinite order."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("spectral box bounds must be finite")
        if self.lo > self.hi:
            raise ValueError("need lo <= hi")


@dataclass(frozen=True)
class TraceBall:
    """{V >= 0 : tr V <= r}."""

    r: float
    n: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("trace ball radius must be nonnegative")


@dataclass(frozen=True)
class Fantope:
    """{0 <= V <= I, tr V <= k}."""

    k: int
    n: int

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
    if isinstance(S, SpectralBox):
        return S.lo <= 0.0 <= S.hi
    if isinstance(S, (TraceBall, Fantope, Ray, ShiftedPSDCap)):
        return True
    return member(S, np.zeros((S.n, S.n)), tol)


# ---------------------------------------------------------------------------
# Support functions


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
    if isinstance(S, SpectralBox):
        w, Q = sym_eig(G)
        choice = np.where(w > 0.0, S.hi, S.lo)
        return float(np.sum(choice * w)), (Q * choice) @ Q.T
    if isinstance(S, TraceBall):
        w, Q = sym_eig(G)
        if w[0] <= 0.0:
            return 0.0, np.zeros((n, n))
        u = Q[:, 0]
        return float(S.r * w[0]), S.r * np.outer(u, u)
    if isinstance(S, Fantope):
        w, Q = sym_eig(G)
        c = np.zeros(n)
        c[: S.k] = (w[: S.k] > 0.0).astype(float)
        return float(np.sum(c * w)), (Q * c) @ Q.T
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
    scale = lambda M: 1.0 + np.linalg.norm(M)
    if isinstance(S, Singleton):
        if min_eig(S.U) < -tol.psd_abs * scale(S.U):
            return -np.inf, None
        return float(np.sum(S.U * G)), S.U
    if isinstance(S, SpectralBox):
        if S.hi < 0.0:
            return -np.inf, None
        return support(SpectralBox(max(S.lo, 0.0), S.hi, S.n), G, tol)
    if isinstance(S, (TraceBall, Fantope, ShiftedPSDCap)):
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
    if isinstance(S, SpectralBox):
        w = np.linalg.eigvalsh(V)
        return w[0] >= S.lo - tol.psd_abs * scale and w[-1] <= S.hi + tol.psd_abs * scale
    if isinstance(S, TraceBall):
        return (
            min_eig(V) >= -tol.psd_abs * scale
            and np.trace(V) <= S.r + tol.feas_abs * (1.0 + S.r)
        )
    if isinstance(S, Fantope):
        w = np.linalg.eigvalsh(V)
        return (
            w[0] >= -tol.psd_abs * scale
            and w[-1] <= 1.0 + tol.psd_abs * scale
            and np.trace(V) <= S.k + tol.feas_abs * (1.0 + S.k)
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


def spectral_caps(S: ConvexSetSpec):
    """(cap, total) such that S intersect PSD has the eigenvalues
    {0 <= lambda_i <= cap, sum lambda_i <= total}, or None when S is not
    a spectral set.

    This is the one place that describes the spectral variants: the box
    gives (hi, inf), the trace ball (inf, r), the Fantope (1, k).  A box
    with lo > 0 also bounds the eigenvalues from below; its callers only
    use points with every eigenvalue at the cap, where that bound holds.
    A box with hi < 0 misses the PSD cone, signalled by cap < 0.
    """
    if isinstance(S, SpectralBox):
        return S.hi, np.inf
    if isinstance(S, TraceBall):
        return np.inf, S.r
    if isinstance(S, Fantope):
        return 1.0, float(S.k)
    return None


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
    if isinstance(S, SpectralBox):
        w, Q = sym_eig(V)
        return (Q * np.clip(w, S.lo, S.hi)) @ Q.T
    if isinstance(S, (TraceBall, Fantope)):
        w, Q = sym_eig(V)
        return (Q * _project_capped_simplex(w, *spectral_caps(S))) @ Q.T
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
    """Minkowski gauge inf{t >= 0 : G in t*S}; requires 0 in S."""
    G = sym(G, tol)
    if not contains_zero(S, tol):
        raise ValueError("gauge requires 0 in S")
    if not np.any(np.abs(G) > 0.0):
        return 0.0
    scale = 1.0 + np.linalg.norm(G)
    if isinstance(S, SpectralBox) and S.lo == 0.0:
        if min_eig(G) < -tol.psd_abs * scale:
            return np.inf
        top = max_eig(G)
        return 0.0 if top <= 0 else (np.inf if S.hi == 0 else top / S.hi)
    if isinstance(S, TraceBall):
        if min_eig(G) < -tol.psd_abs * scale:
            return np.inf
        return np.inf if S.r == 0 else float(np.trace(G)) / S.r
    # bisection on monotone membership in t
    t = 1.0
    while not member(S, G / t, tol):
        t *= 2.0
        if t > 1e18:
            return np.inf
    lo, hi = 0.0, t
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == 0.0 or not member(S, G / mid, tol):
            lo = mid
        else:
            hi = mid
    return hi


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
# Cone compatibility (randomized falsifier)


def cone_compatible(
    S: ConvexSetSpec,
    pairs=None,
    rng: np.random.Generator | None = None,
    n_samples: int = 60,
    tol: Tolerances = DEFAULT_TOL,
):
    """Sampling check that the gauge of S is monotone for the PSD order:
    for y in PSD∩S and 0 <= x <= y, x should stay in S.

    Returns (ok, counterexample) where counterexample is a violating
    (y, x) pair or None.  A True answer is evidence, not a proof.
    """
    if not contains_zero(S, tol):
        raise ValueError("cone compatibility is defined for sets containing 0")
    n = S.n
    slack_tol = Tolerances(tol.rank_rel, 100 * tol.psd_abs, 100 * tol.feas_abs, tol.conj_rel)
    if pairs is None:
        rng = rng or np.random.default_rng(0)
        pairs = []
        for _ in range(n_samples):
            R = rng.standard_normal((n, n))
            Y = R @ R.T
            g = gauge(S, Y, tol)
            if not np.isfinite(g):
                continue
            if g > 0:
                Y = Y * (0.95 / g)
            Rt = psd_sqrt(Y)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            C = (Q * rng.uniform(0.0, 1.0, size=n)) @ Q.T
            X = sym(Rt @ C @ Rt)
            pairs.append((Y, X))
    for Y, X in pairs:
        if not member(S, Y, slack_tol):
            continue
        if not member(S, X, slack_tol):
            return False, (Y, X)
    return True, None


def polar_support_identity_check(
    C: ConvexSetSpec,
    cone,
    rng: np.random.Generator | None = None,
    n_samples: int = 40,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Finite-sample consistency check of sigma_{C+K} = sigma_C + delta_{K polar}.

    ``cone`` is a Ray, or one of the strings "psd"/"nsd".  The left side
    is probed with sampled cone generators, the right side uses the exact
    variant formulas; the identity mirrors (C+K)^polar = C^polar ∩ K^polar.
    """
    if not is_bounded(C):
        raise ValueError("check requires a bounded C")
    rng = rng or np.random.default_rng(0)
    n = C.n

    def cone_generators():
        gens = []
        for _ in range(25):
            u = rng.standard_normal(n)
            if cone == "nsd":
                gens.append(-np.outer(u, u))
            elif cone == "psd":
                gens.append(np.outer(u, u))
            elif isinstance(cone, Ray):
                gens.append(cone.D)
            else:
                raise TypeError("cone must be 'psd', 'nsd', or a Ray")
        return gens

    def in_cone_polar(G):
        if cone == "nsd":
            return min_eig(G) >= -tol.psd_abs * (1.0 + np.linalg.norm(G))
        if cone == "psd":
            return max_eig(G) <= tol.psd_abs * (1.0 + np.linalg.norm(G))
        ip = float(np.sum(cone.D * G))
        return ip <= tol.feas_abs * (1.0 + np.linalg.norm(G))

    gens = cone_generators()
    for _ in range(n_samples):
        G = sym(rng.standard_normal((n, n)) + rng.standard_normal((n, n)).T)
        gated = in_cone_polar(G)
        unbounded = any(
            float(np.sum(K * G)) > tol.feas_abs * (1.0 + np.linalg.norm(G)) for K in gens
        )
        if gated and unbounded:
            return False
        if gated:
            lhs, _ = support(C, G, tol)
            # sampled lower bound on sigma_{C+K}: vertices of C plus cone rays
            probe = max(
                lhs,
                max(
                    (lhs + float(np.sum(K * G)) for K in gens),
                    default=lhs,
                ),
            )
            if probe > lhs + tol.conj_rel * (1.0 + abs(lhs)):
                return False
    return True


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
