"""Computable convex subsets of the symmetric matrices and the
perturbation functions h built from them.

The set family is a closed enumeration: each variant admits exact
support functions, membership tests, gauges, and Euclidean projections,
which is what makes the downstream constraint-qualification checks
decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .gmf import _in_KA, _in_KA_polar
from .numlin import DEFAULT_TOL, Tolerances, live_range, max_eig, min_eig, psd_sqrt, sym, sym_eig


# ---------------------------------------------------------------------------
# Set variants


class ConvexSetSpec:
    """A closed convex set S of n x n symmetric matrices.

    Each variant implements support, psd_cap_support, member, project
    and gauge (for G != 0, given 0 in S) as methods on trusted arrays:
    symmetric and n x n, either passed through sym by the module-level
    functions of the same names or computed by the library itself.
    The constraint-qualification rules are methods only:

    - inside_KA(pd): whether S lies inside K_A, within pd's tolerances;
      False where that is not known.
    - ka_bounded(pd): whether S intersect K_A is bounded.
    - max_min_eig(N, tol): the sup over V in S of lambda_min(N^T V N),
      for N with orthonormal columns, at least one; Hull's is an upper
      bound on the same side of +-psd_abs as the sup, or nan where that
      side is not known.  A value above psd_abs means S meets the
      interior of {V : N^T V N >= 0}, one of at least -psd_abs that S
      meets the cone.  The base rule serves the sets with a greatest
      element: lambda_min(N^T V N) grows with V in the Loewner order, so
      loewner_max() attains the sup.
    - dominates(G, tol): whether some W in S has W >= G, for G positive
      semidefinite; None (Hull only) where that is not known.  The base
      rule reads it off loewner_max().
    - interior_member(C, tol): (C in ri S, C in int S), each True, False
      or None where that is not known.
    - covers(G, pd): whether some W in S has G - W in the polar of K_A,
      for G positive semidefinite; None where that is not known.
    - support_dom(): dom sigma_S, all of S^n unless S is unbounded.

    loewner_max() returns the greatest element of S in the Loewner order
    (V <= Vbar for every V in S, Vbar in S) or None where S has none.
    greatest(free) returns the U in S with sigma_S = <U, .> on K_A, or
    None: at A = 0 (free), where K_A is PSD, loewner_max() is such a U.
    psd_separator(tol) returns a V >= 0 with sigma_S(V) < -psd_abs, proof
    that S misses PSD, or None; only a hull gives one, from its cut duals.

    `kind` is the variant's JSON tag; the JSON fields are the dataclass
    fields."""

    kind: str
    bounded = True
    full = False  # S is all of S^n

    def contains_zero(self, tol: Tolerances) -> bool:
        return self.member(np.zeros((self.n, self.n)), tol)

    def ka_bounded(self, pd) -> bool:
        return self.bounded

    def dominates(self, G: np.ndarray, tol: Tolerances) -> bool:
        return min_eig(self.loewner_max() - G) >= -tol.psd_abs

    def max_min_eig(self, N: np.ndarray, tol: Tolerances) -> float:
        return min_eig(N.T @ self.loewner_max() @ N)

    def covers(self, G: np.ndarray, pd) -> bool | None:
        # K_A polar is {0} when ker A = {0}, the negative semidefinite cone when A = 0
        return self.member(G, pd.tol) if pd.ker_trivial else self.dominates(G, pd.tol) if pd.unconstrained else None

    def support_dom(self) -> ConvexSetSpec:
        return Halfspace(np.zeros((self.n, self.n)))

    def loewner_max(self) -> np.ndarray | None:
        return None

    def greatest(self, free: bool) -> np.ndarray | None:
        return self.loewner_max() if free else None

    def psd_separator(self, tol: Tolerances) -> np.ndarray | None:
        return None


@dataclass(frozen=True, eq=False)
class Singleton(ConvexSetSpec):
    U: np.ndarray

    kind = "singleton"

    def __post_init__(self):
        object.__setattr__(self, "U", sym(self.U))

    @property
    def n(self) -> int:
        return self.U.shape[0]

    def support(self, G, tol):
        return float(np.sum(self.U * G)), self.U

    def psd_cap_support(self, G, tol):
        if min_eig(self.U) < -tol.psd_abs:
            return -np.inf, None
        return self.support(G, tol)

    def member(self, V, tol):
        return np.linalg.norm(V - self.U) <= tol.feas_abs * (1.0 + np.linalg.norm(self.U))

    def project(self, V, tol):
        return self.U.copy()

    def gauge(self, G, tol):
        # holding 0, S is the cone {0}: t*S = S for every t > 0
        return 0.0 if self.member(G, tol) else np.inf

    def inside_KA(self, pd):
        return _in_KA(pd, self.U)

    def interior_member(self, C, tol):
        return self.member(C, tol), False  # ri {U} = {U}, int {U} is empty

    def covers(self, G, pd):
        return _in_KA_polar(pd, G - self.U)

    def loewner_max(self):
        return self.U.copy()

    def greatest(self, free):
        return self.U


class SpectralSet(ConvexSetSpec):
    """{V : lambda(V) in C} for the permutation-invariant vector set
    C = {lo <= lambda_i <= cap, sum lambda_i <= total}.

    By Lewis's transfer principle the support function, membership,
    projection and gauge of such a set are each one rule on the sorted
    eigenvalues, so the subclasses only validate their arguments and
    supply (lo, cap, total).  Every subclass has lo = 0 or total = inf,
    which max_min_eig relies on."""

    lo: float
    cap: float
    total: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    def support(self, G, tol):
        return _spectral_support(G, self.lo, self.cap, self.total)

    def psd_cap_support(self, G, tol):
        # the same set with lo replaced by max(lo, 0); empty when cap < 0
        if self.cap < 0.0:
            return -np.inf, None
        return _spectral_support(G, max(self.lo, 0.0), self.cap, self.total)

    def member(self, V, tol):
        return self._fits(np.linalg.eigvalsh(V), tol)

    def _fits(self, w, tol):
        """Whether the ascending eigenvalues w meet every bound."""
        return (
            w[0] >= self.lo - tol.psd_abs
            and w[-1] <= self.cap + tol.psd_abs
            and w.sum() <= self.total + tol.feas_abs * (1.0 + self.total)
        )

    def project(self, V, tol):
        w, Q = sym_eig(V)
        lo = self.lo
        shifted = _project_capped_simplex(w - lo, self.cap - lo, self.total - w.size * lo)
        return (Q * (lo + shifted)) @ Q.T

    def gauge(self, G, tol):
        # G in t*S iff lambda_max <= t*cap, lambda_min >= t*lo, sum <= t*total
        w = np.linalg.eigvalsh(G)
        num = np.array([w[-1], -w[0], w.sum()])
        den = np.array([self.cap, -self.lo, self.total])
        if np.any((num > tol.psd_abs) & (den == 0.0)):
            return np.inf
        return max(0.0, float(np.max(np.divide(num, den, out=np.zeros(3), where=den > 0.0))))

    def inside_KA(self, pd):
        return self.lo >= 0.0

    def dominates(self, G, tol):
        # W = G when G's eigenvalues fit the caps (W = hi * I for a box)
        under_cap = max_eig(G) <= self.cap + tol.psd_abs
        return under_cap and float(np.trace(G)) <= self.total + tol.feas_abs * (1.0 + self.total)

    def interior_member(self, C, tol):
        w = np.linalg.eigvalsh(C)
        if not self._fits(w, tol):
            return False, False
        if self.cap == self.lo or self.total == C.shape[0] * self.lo:
            return True, False  # S is the one point lo * I
        # otherwise S has interior: every bound holds strictly there
        margin = min(w[0] - self.lo, self.cap - w[-1], self.total - w.sum())
        return (True, True) if margin > tol.psd_abs else (None, None)

    def max_min_eig(self, N, tol):
        # With k = N's column count and c = min(cap, total/k), V = c*I
        # (total = inf) or V = c*N N^T (lo = 0) lies in S and gives
        # N^T V N = c*I.  Nothing does better: lambda_min(N^T V N) is at
        # most lambda_max(V) <= cap and, for lo = 0, at most
        # tr(N^T V N)/k <= total/k.
        return float(min(self.cap, self.total / N.shape[1]))


@dataclass(frozen=True)
class SpectralBox(SpectralSet):
    """{V : lo*I <= V <= hi*I} in the semidefinite order."""

    lo: float
    hi: float
    n: int

    kind = "spectral_box"
    cap = property(lambda self: self.hi)
    total = np.inf

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo <= self.hi):
            raise ValueError("spectral box bounds must be finite, with lo <= hi")

    def loewner_max(self):
        return self.hi * np.eye(self.n)


@dataclass(frozen=True)
class TraceBall(SpectralSet):
    """{V >= 0 : tr V <= r}."""

    r: float
    n: int

    kind = "trace_ball"
    lo = 0.0
    cap = np.inf
    total = property(lambda self: self.r)

    def __post_init__(self):
        super().__post_init__()
        if not self.r >= 0:  # NaN included
            raise ValueError("trace ball radius must be nonnegative")


@dataclass(frozen=True)
class Fantope(SpectralSet):
    """{0 <= V <= I, tr V <= k}."""

    k: int
    n: int

    kind = "fantope"
    lo = 0.0
    cap = 1.0
    total = property(lambda self: float(self.k))

    def __post_init__(self):
        super().__post_init__()
        if not (isinstance(self.k, (int, np.integer)) and 1 <= self.k <= self.n):
            raise ValueError("need an integer k with 1 <= k <= n")


@dataclass(frozen=True, eq=False)
class Hull(ConvexSetSpec):
    """Convex hull of finitely many symmetric matrices."""

    points: tuple

    kind = "hull"

    def __init__(self, points):
        pts = tuple(sym(U) for U in points)
        if len({U.shape for U in pts}) != 1:
            raise ValueError("hull needs at least one point, all of one shape")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points[0].shape[0]

    def support(self, G, tol):
        vals = [float(np.sum(U * G)) for U in self.points]
        j = int(np.argmax(vals))
        return vals[j], self.points[j]

    def psd_cap_support(self, G, tol):
        return _hull_max_min_eig(self.points, tol, g=np.array([float(np.sum(U * G)) for U in self.points]))

    def _nearest(self, V: np.ndarray) -> np.ndarray:
        """The point of S nearest V.  One NNLS on [C; 1^T] u ~ [0; 1],
        with columns vec(U_i - V) in C, then w = u / sum u: along u = t*w
        the residual's minimum over t is |Cw|^2 / (1 + |Cw|^2), which
        grows with |Cw| = |sum w_i U_i - V|."""
        import scipy.optimize

        C = np.column_stack([(U - V).ravel() for U in self.points])
        u, _ = scipy.optimize.nnls(np.vstack([C, np.ones((1, C.shape[1]))]), np.eye(C.shape[0] + 1)[-1])
        return np.tensordot(u / u.sum(), self.points, axes=1)

    def member(self, V, tol):
        return np.linalg.norm(self._nearest(V) - V) <= tol.feas_abs * (1.0 + np.linalg.norm(V))

    def project(self, V, tol):
        P = self._nearest(V)
        return 0.5 * (P + P.T)

    def ri_weights(self, C: np.ndarray):
        """(t, w): the largest t with C = sum w_i U_i, sum w = 1 and every
        w_i >= t, by one LP; t = -inf (w None) off the points' affine
        hull, nan if the LP fails.  C lies in S iff t >= 0 and in ri S iff
        t > 0: the relative interior of a polytope is the set of its
        combinations with positive weights."""
        import scipy.optimize

        k = len(self.points)
        iu = np.triu_indices(self.n)
        res = scipy.optimize.linprog(
            -np.eye(k + 1)[k],  # maximize t over (w, t)
            A_ub=np.hstack([-np.eye(k), np.ones((k, 1))]),  # t <= w_i
            b_ub=np.zeros(k),
            A_eq=np.column_stack([np.append(U[iu], 1.0) for U in self.points] + [np.zeros(iu[0].size + 1)]),
            b_eq=np.append(C[iu], 1.0),
            bounds=(None, None),
            method="highs",
        )
        if res.status != 0:  # 2: infeasible
            return (-np.inf if res.status == 2 else np.nan), None
        return float(res.x[k]), res.x[:k]

    def interior_member(self, C, tol):
        t, w = self.ri_weights(C)
        if t < -tol.feas_abs:
            return False, False
        slack = tol.feas_abs * (1.0 + np.linalg.norm(C))
        if not (t > tol.feas_abs and np.linalg.norm(np.tensordot(w, self.points, axes=1) - C) <= slack):
            return None, None
        # int S = ri S when the points' affine hull is all of S^n
        iu = np.triu_indices(self.n)
        diffs = [(U - self.points[0])[iu] for U in self.points]
        return True, bool(np.linalg.matrix_rank(diffs, rtol=tol.rank_rel) == iu[0].size)

    def gauge(self, G, tol):
        # 0 in S, so G in t*S iff G = sum mu_i U_i with mu >= 0, sum mu <= t
        import scipy.optimize

        iu = np.triu_indices(self.n)
        res = scipy.optimize.linprog(
            np.ones(len(self.points)),
            A_eq=np.column_stack([U[iu] for U in self.points]),
            b_eq=G[iu],
            bounds=(0.0, None),
            method="highs",
        )
        if res.status == 2:
            return np.inf
        if res.status != 0:
            raise RuntimeError(f"hull gauge LP failed: {res.message}")
        return float(res.fun)

    def inside_KA(self, pd):
        return all(_in_KA(pd, U) for U in self.points)

    def dominates(self, G, tol):
        s = _hull_max_min_eig(self.points, tol, G)[0]
        return None if np.isnan(s) else s >= -tol.psd_abs

    def max_min_eig(self, N, tol):
        return _hull_max_min_eig([N.T @ U @ N for U in self.points], tol)[0]

    def psd_separator(self, tol):
        s, V = _hull_max_min_eig(self.points, tol)
        return V if s < -tol.psd_abs else None


@dataclass(frozen=True, eq=False)
class Ray(ConvexSetSpec):
    """pos{D} = {alpha * D : alpha >= 0}."""

    D: np.ndarray

    kind = "ray"
    bounded = property(lambda self: not np.any(self.D))

    def __post_init__(self):
        object.__setattr__(self, "D", sym(self.D))

    @property
    def n(self) -> int:
        return self.D.shape[0]

    def support(self, G, tol):
        ip = float(np.sum(self.D * G))
        scale = 1.0 + np.linalg.norm(self.D) * np.linalg.norm(G)
        if ip <= tol.feas_abs * scale:
            return 0.0, np.zeros((self.n, self.n))
        return np.inf, None

    def psd_cap_support(self, G, tol):
        # S cap PSD is {0} when D = 0 or D is not PSD, the whole ray otherwise
        if self.bounded or min_eig(self.D) < -tol.psd_abs:
            return 0.0, np.zeros((self.n, self.n))
        return self.support(G, tol)

    def _coefficient(self, V) -> float:
        return max(0.0, float(np.sum(self.D * V) / np.sum(self.D * self.D)))

    def member(self, V, tol):
        if self.bounded:
            return np.linalg.norm(V) <= tol.feas_abs
        nearest = self._coefficient(V) * self.D
        return np.linalg.norm(V - nearest) <= tol.feas_abs * (1.0 + np.linalg.norm(V))

    def project(self, V, tol):
        if self.bounded:
            return np.zeros_like(V)
        return self._coefficient(V) * self.D

    def gauge(self, G, tol):
        # a cone: t*S = S for every t > 0
        return 0.0 if self.member(G, tol) else np.inf

    def inside_KA(self, pd):
        return _in_KA(pd, self.D)

    def ka_bounded(self, pd):
        return self.bounded or not _in_KA(pd, self.D)

    def interior_member(self, C, tol):
        if not self.member(C, tol):
            return False, False
        if self.bounded:
            return True, False  # S = {0}
        # ri S = {alpha D : alpha > 0}; S has interior only in S^1
        apex = self._coefficient(C) * np.linalg.norm(self.D) <= tol.feas_abs * (1.0 + np.linalg.norm(C))
        ri = None if apex else True
        return ri, ri if self.n == 1 else False

    def dominates(self, G, tol):
        # for G >= 0 (xi_member passes YY^T/2), alpha D >= G holds at
        # alpha = 0 iff G = 0, and for large alpha iff D >= 0 and rge G
        # lies in rge D; one eigh of D gives both
        if min_eig(-G) >= -tol.psd_abs:
            return True
        lam, E = np.linalg.eigh(self.D)
        return lam[0] >= -tol.psd_abs and live_range(lam, E, G, tol) is not None

    def max_min_eig(self, N, tol):
        # alpha -> +inf when N^T D N > 0 (past the floor), else alpha = 0
        return np.inf if min_eig(N.T @ self.D @ N) > tol.psd_abs else 0.0

    def support_dom(self):
        return Halfspace(self.D)


@dataclass(frozen=True, eq=False)
class ShiftedPSDCap(ConvexSetSpec):
    """{V : 0 <= V <= U}."""

    U: np.ndarray

    kind = "psd_cap"

    def __post_init__(self):
        U = sym(self.U)
        if min_eig(U) < -DEFAULT_TOL.psd_abs:
            raise ValueError("cap bound U must be positive semidefinite")
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        return self.U.shape[0]

    def support(self, G, tol):
        R = psd_sqrt(self.U)
        w, Q = sym_eig(R @ G @ R)
        Pi = (Q * (w > 0.0)) @ Q.T
        V = R @ Pi @ R
        return float(np.sum(np.clip(w, 0.0, None))), 0.5 * (V + V.T)

    def psd_cap_support(self, G, tol):
        return self.support(G, tol)

    def member(self, V, tol):
        return min_eig(V) >= -tol.psd_abs and min_eig(self.U - V) >= -tol.psd_abs

    def project(self, V, tol):
        """Dykstra's alternating projections onto PSD and U - PSD."""
        X = V.copy()
        p = np.zeros_like(V)
        q = np.zeros_like(V)
        for _ in range(200):
            w, Q = sym_eig(X + p)
            Y = (Q * np.clip(w, 0.0, None)) @ Q.T
            p = X + p - Y
            w, Q = sym_eig(self.U - (Y + q))
            Xn = self.U - (Q * np.clip(w, 0.0, None)) @ Q.T
            q = Y + q - Xn
            if np.linalg.norm(Xn - X) <= 1e-12 * (1.0 + np.linalg.norm(X)):
                X = Xn
                break
            X = Xn
        return 0.5 * (X + X.T)

    def gauge(self, G, tol):
        # G in t*S iff 0 <= G <= t*U: G >= 0 vanishes off rge U, and on it
        # t is lambda_max(U^{+1/2} G U^{+1/2}).  One eigendecomposition
        # U = Q diag(w) Q^T gives both
        if min_eig(G) < -tol.psd_abs:
            return np.inf
        w, Q = np.linalg.eigh(self.U)
        live = live_range(w, Q, G, tol)
        if live is None:
            return np.inf
        R = Q[:, live] / np.sqrt(w[live])  # U^{+1/2} = R Q_live^T
        return max(0.0, max_eig(R.T @ G @ R))

    def inside_KA(self, pd):
        return True

    def interior_member(self, C, tol):
        if not self.member(C, tol):
            return False, False
        # ri S is {0 < V < U} on rge U (C vanishes off it), and S has
        # interior iff U > 0
        w, Q = np.linalg.eigh(self.U)
        R = Q[:, w > tol.psd_abs]
        Cr = R.T @ C @ R
        margin = min(min_eig(Cr), min_eig(R.T @ self.U @ R - Cr))
        ri = True if margin > tol.psd_abs else None
        return ri, ri if R.shape[1] == self.n else False

    def loewner_max(self):
        return self.U.copy()


@dataclass(frozen=True, eq=False)
class Halfspace(ConvexSetSpec):
    """{V : <D, V> <= 0}, all of S^n when D = 0: dom sigma_S of the ray
    pos{D}, and with D = 0 of every bounded S.  Internal: the constraint
    qualifications read it as dom h or dom h*; it has no JSON tag."""

    D: np.ndarray

    kind = "halfspace"
    bounded = False
    full = property(lambda self: not np.any(self.D))

    def project(self, V, tol):
        ip = float(np.sum(self.D * V))
        return V - (ip / float(np.sum(self.D * self.D))) * self.D if ip > 0 else V

    def max_min_eig(self, N, tol):
        # V = N M N^T + W with W orthogonal to every N M N^T: unless
        # D = N E N^T with E >= 0, E != 0, some such V meets <D, V> <= 0
        # with M as large as wanted.  Otherwise <E, M> <= 0 caps
        # lambda_min(M) at 0, which M = 0 attains.
        D, E = self.D, N.T @ self.D @ N
        in_span = np.linalg.norm(D - N @ E @ N.T) <= tol.feas_abs * (1.0 + np.linalg.norm(D))
        return 0.0 if in_span and np.any(E) and min_eig(E) >= -tol.psd_abs else np.inf

    def ka_bounded(self, pd):
        # K_A holds a line unless A = 0; <D, V> <= 0 meets PSD in {0} iff D > 0
        return pd.unconstrained and min_eig(self.D) > pd.tol.psd_abs

    def interior_member(self, C, tol):
        if self.full:
            return True, True
        ip = float(np.sum(self.D * C))
        thr = tol.feas_abs * (1.0 + np.linalg.norm(self.D) * np.linalg.norm(C))
        inside = True if ip < -thr else False if ip > thr else None
        return inside, inside

    def covers(self, G, pd):
        # W = G + N E N^T with E >= 0 needs <D, G> + <N^T D N, E> <= 0
        D, tol = self.D, pd.tol
        if min_eig(pd.N.T @ D @ pd.N) < -tol.psd_abs:
            return True
        return float(np.sum(D * G)) <= tol.feas_abs * (1.0 + np.linalg.norm(D) * np.linalg.norm(G))


# ---------------------------------------------------------------------------
# Rules shared by several variants


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


_MAX_CUTS = 50  # after this many cuts, or a failed LP, the hull's max_min_eig and psd_cap_support are nan (undecided)


def _hull_max_min_eig(mats, tol: Tolerances, C=0.0, g=None):
    """(s, V) for Hull.max_min_eig's s = max over the simplex of
    lambda_min(sum w_i D_i), D_i = M_i - C, by Kelley's cutting planes:
    lambda_min's eigenvector q_j at w cuts s <= c_j.w, c_ji = q_j^T D_i q_j;
    an LP maximizes the least cut over the simplex, and its duals y give
    s <= max_i <D_i, V> for V = sum y_j q_j q_j^T / sum y >= 0 at any LP
    slack.  (nan, None) where the cuts run out or an LP fails.

    Given g_i = <D_i, G>, (g.w, sum w_i D_i) is the support of hull{D_i} cap PSD at G:
    from the best vertex, the LP maximizes g.w under the cuts at s = 0, which every
    PSD point meets, until sum w_i D_i >= -psd_abs I; (-inf, None) where it is infeasible."""
    import scipy.optimize

    D = np.asarray(mats) - C
    k = len(D)
    w = np.full(k, 1.0 / k) if g is None else np.eye(k)[int(np.argmax(g))]
    lo, cuts, qs = -np.inf, [], []
    for _ in range(_MAX_CUTS):
        W = np.tensordot(w, D, axes=1)
        lam, Q = np.linalg.eigh(W)
        if g is not None and lam[0] >= -tol.psd_abs:
            return float(g @ w), W
        lo = max(lo, lam[0])
        qs.append(Q[:, 0])
        cuts.append(np.einsum("i,kij,j->k", Q[:, 0], D, Q[:, 0]))
        res = scipy.optimize.linprog(  # max t, or g.w at t = 0, over (w, t): t <= c.w for every cut, w in the simplex
            -np.eye(k + 1)[k] if g is None else -np.append(g, 0.0),
            A_ub=np.column_stack([-np.array(cuts), np.ones(len(cuts))]), b_ub=np.zeros(len(cuts)), A_eq=[[1.0] * k + [0.0]],
            b_eq=[1.0], bounds=[(0.0, None)] * k + [(None, None) if g is None else (0.0, 0.0)], method="highs",
            options=None if g is None else {"primal_feasibility_tolerance": 1e-10},  # a w 1e-7 off its cut repeats it
        )
        if res.status != 0:  # 2: infeasible, which only the cuts at t = 0 can be
            return (-np.inf if res.status == 2 else np.nan), None
        w = res.x[:k]
        if g is not None:
            continue
        y = np.clip(-res.ineqlin.marginals, 0.0, None)
        hi = float(np.max(y @ cuts) / y.sum())
        if hi < -tol.psd_abs or lo > tol.psd_abs or (lo >= -tol.psd_abs and hi <= tol.psd_abs):
            return hi, (np.transpose(qs) * y) @ qs / y.sum()
    return np.nan, None


# ---------------------------------------------------------------------------
# Perturbation functions h


@dataclass(frozen=True)
class Indicator:
    """h = delta_S: dom h = S, dom h* = dom sigma_S."""

    set: ConvexSetSpec

    kind = "indicator"
    n = property(lambda self: self.set.n)
    dom = property(lambda self: self.set)
    conj_dom = property(lambda self: self.set.support_dom())

    def value(self, V, tol):
        return (0.0 if self.set.member(V, tol) else np.inf), np.zeros_like(V)

    def conj(self, W, tol):
        return self.set.support(W, tol)


@dataclass(frozen=True)
class Support:
    """h = sigma_S: dom h = dom sigma_S, dom h* = S."""

    set: ConvexSetSpec

    kind = "support"
    n = property(lambda self: self.set.n)
    dom = property(lambda self: self.set.support_dom())
    conj_dom = property(lambda self: self.set)

    def value(self, V, tol):
        return self.set.support(V, tol)

    def conj(self, W, tol):
        return (0.0 if self.set.member(W, tol) else np.inf), np.zeros_like(W)


@dataclass(frozen=True, eq=False)
class Linear(Support):
    """h = <U, .> = sigma_{U}: dom h = S^n, dom h* = {U}."""

    U: np.ndarray
    set: ConvexSetSpec = field(init=False, repr=False, compare=False)

    kind = "linear"

    def __post_init__(self):
        S = Singleton(self.U)  # the one check of U
        object.__setattr__(self, "U", S.U)
        object.__setattr__(self, "set", S)


HSpec = Linear | Indicator | Support


# ---------------------------------------------------------------------------
# The set and h rules at the validation boundary


def support(S: ConvexSetSpec, G: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """sigma_S(G) = sup_{V in S} <V, G> with a maximizer when finite.

    Returns (value, witness); witness is None when the value is +inf.
    """
    return S.support(sym(G, tol, S.n), tol)


def psd_cap_support(S: ConvexSetSpec, G: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """sigma_{S \\cap PSD}(G) with maximizer; -inf if the intersection is empty."""
    return S.psd_cap_support(sym(G, tol, S.n), tol)


def member(S: ConvexSetSpec, V: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    return S.member(sym(V, tol, S.n), tol)


def project(S: ConvexSetSpec, V: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Euclidean projection onto S (Dykstra for the general cap)."""
    return S.project(sym(V, tol, S.n), tol)


def gauge(S: ConvexSetSpec, G: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """Minkowski gauge inf{t >= 0 : G in t*S}; requires 0 in S.

    Exact for every variant, and +inf when G lies outside the cone
    generated by S."""
    G = sym(G, tol, S.n)
    if not S.contains_zero(tol):
        raise ValueError("gauge requires 0 in S")
    if not np.any(np.abs(G) > 0.0):
        return 0.0
    return S.gauge(G, tol)


def h_eval(h: HSpec, V: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """h(V); h.value(V, tol) also returns a subgradient of h at V."""
    return h.value(sym(V, tol, h.n), tol)[0]


def h_conj(h: HSpec, W: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """Conjugate of h: Linear(U)* = delta_{U}, Indicator(S)* = sigma_S,
    Support(S)* = delta_S; h.conj(W, tol) also returns a V attaining
    h*(W) = <W, V> - h(V)."""
    return h.conj(sym(W, tol, h.n), tol)[0]


# ---------------------------------------------------------------------------
# JSON serialization: {"kind": tag, field: value, ...} over the dataclass init fields


def _to_json(obj) -> dict:
    out = {"kind": obj.kind}
    for f in fields(obj):
        if f.init:
            out[f.name] = _JSON_FIELDS[f.type][0](getattr(obj, f.name))
    return out


def _from_json(variants: dict, d: dict, what: str):
    kind = d.get("kind")
    if kind not in variants:
        raise ValueError(f"unknown {what} tag {kind!r}")
    cls = variants[kind]
    return cls(*(_JSON_FIELDS[f.type][1](d[f.name]) for f in fields(cls) if f.init))


def set_to_json(S: ConvexSetSpec) -> dict:
    return _to_json(S)


def set_from_json(d: dict) -> ConvexSetSpec:
    return _from_json(_SETS, d, "set")


def hspec_to_json(h: HSpec) -> dict:
    return _to_json(h)


def hspec_from_json(d: dict) -> HSpec:
    return _from_json(_HSPECS, d, "h")


_SETS = {
    cls.kind: cls
    for cls in (Singleton, SpectralBox, TraceBall, Fantope, Hull, Ray, ShiftedPSDCap)
}
_HSPECS = {cls.kind: cls for cls in (Linear, Indicator, Support)}
# field annotation -> (to JSON, from JSON)
_JSON_FIELDS = {
    "float": (lambda v: v, float),
    "int": (int, lambda v: v),  # the constructor refuses a non-integer
    "np.ndarray": (np.ndarray.tolist, partial(np.array, dtype=float)),
    "tuple": (lambda pts: [U.tolist() for U in pts], lambda pts: [np.array(U, float) for U in pts]),
    "ConvexSetSpec": (set_to_json, set_from_json),
}
