"""Dense linear-algebra primitives with explicit rank tolerances.

Everything downstream (cone tests, bordered-matrix evaluation, norms)
funnels through the handful of routines here so that rank decisions are
made with a single relative cutoff.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical tolerances.

    rank_rel : relative singular-value cutoff for rank decisions
    psd_abs  : eigenvalue floor for semidefiniteness tests, never scaled
    feas_abs : residual slack for feasibility/range tests
    conj_rel : relative tolerance for conjugacy certificates
    """

    rank_rel: float = 1e-10
    psd_abs: float = 1e-9
    feas_abs: float = 1e-8
    conj_rel: float = 1e-6

    def __post_init__(self):
        for name in ("rank_rel", "psd_abs", "feas_abs", "conj_rel"):
            v = getattr(self, name)
            if not (0.0 < v <= 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2], got {v}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> Tolerances:
        """Tolerances from d; keys that are missing or None take the
        defaults, and other keys are ignored."""
        given = {f.name: float(d[f.name]) for f in fields(cls) if d.get(f.name) is not None}
        return cls(**given)


DEFAULT_TOL = Tolerances()


# The validation boundary: a public function checks each matrix it receives
# from outside once, a symmetric one by sym and a rectangular one by _rect,
# and hands trusted arrays to everything behind it.


def sym(S: np.ndarray, tol: Tolerances = DEFAULT_TOL, n: int | None = None) -> np.ndarray:
    """Return the symmetrized copy (S + S^T)/2, checking S is square (n x n
    when n is given), finite and nearly symmetric."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or n not in (None, S.shape[0]):
        raise ValueError(f"expected a {'square' if n is None else f'{n}x{n}'} matrix, got shape {S.shape}")
    scale = 1.0 + np.max(np.abs(S)) if S.size else 1.0
    if not scale < np.inf:  # NaN fails every comparison
        raise ValueError("matrix must be finite")
    if np.max(np.abs(S - S.T), initial=0.0) > tol.feas_abs * scale:
        raise ValueError("matrix is not symmetric within feas_abs")
    return 0.5 * (S + S.T)


def _rect(M, shape: tuple[int, int] | None = None, name: str = "X") -> np.ndarray:
    """M as a 2-D float array, checked to be finite and of the given shape."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if shape is not None and M.shape != shape:
        raise ValueError(f"{name} must be {shape[0]}x{shape[1]}, got {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must be finite")
    return M


def pinv(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below
    rank_rel * sigma_max treated as zero."""
    if M.size == 0:
        return M.T.copy()
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    cutoff = tol.rank_rel * (s[0] if s.size else 0.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (Vt.T * inv) @ U.T


def range_contains(M: np.ndarray, C: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every column of C lies in the column space of M."""
    resid = C - M @ (pinv(M, tol) @ C)
    return np.linalg.norm(resid) <= tol.feas_abs * (1.0 + np.linalg.norm(C))


def ker_basis(A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ker A as columns (n x k); k may be 0."""
    n = A.shape[1]
    if A.size == 0 or not np.any(A):
        return np.eye(n)
    _, s, Vt = np.linalg.svd(A)
    cutoff = tol.rank_rel * s[0]
    rank = int(np.sum(s > cutoff))
    return Vt[rank:].T.copy()


def sym_eig(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""
    w, Q = np.linalg.eigh(S)
    order = np.argsort(w)[::-1]
    return w[order], Q[:, order]


def min_eig(S: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(S)[0]) if S.size else np.inf


def max_eig(S: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(S)[-1]) if S.size else -np.inf


def sv(M: np.ndarray) -> np.ndarray:
    """Singular values, descending; length min(rows, cols)."""
    return np.linalg.svd(M, compute_uv=False)


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric square root of a (numerically) PSD matrix."""
    w, Q = np.linalg.eigh(S)
    return (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.T
