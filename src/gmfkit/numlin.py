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
    psd_abs  : eigenvalue slack for semidefiniteness tests
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


def sym(S: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return the symmetrized copy (S + S^T)/2, checking S is finite and nearly symmetric."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    scale = 1.0 + np.max(np.abs(S)) if S.size else 1.0
    if not scale < np.inf:  # NaN fails every comparison
        raise ValueError("matrix must be finite")
    if np.max(np.abs(S - S.T), initial=0.0) > tol.feas_abs * scale:
        raise ValueError("matrix is not symmetric within feas_abs")
    return 0.5 * (S + S.T)


def pinv(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below
    rank_rel * sigma_max treated as zero."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return M.T.copy()
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    cutoff = tol.rank_rel * (s[0] if s.size else 0.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (Vt.T * inv) @ U.T


def range_contains(M: np.ndarray, C: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every column of C lies in the column space of M."""
    M = np.asarray(M, dtype=float)
    C = np.asarray(C, dtype=float)
    if C.ndim == 1:
        C = C[:, None]
    if M.shape[0] != C.shape[0]:
        raise ValueError(f"row counts differ: {M.shape[0]} vs {C.shape[0]}")
    resid = C - M @ (pinv(M, tol) @ C)
    return np.linalg.norm(resid) <= tol.feas_abs * (1.0 + np.linalg.norm(C))


def ker_basis(A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ker A as columns (n x k); k may be 0."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    if A.size == 0 or not np.any(A):
        return np.eye(n)
    _, s, Vt = np.linalg.svd(A)
    cutoff = tol.rank_rel * s[0]
    rank = int(np.sum(s > cutoff))
    return Vt[rank:].T.copy()


def sym_eig(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""
    w, Q = np.linalg.eigh(np.asarray(S, dtype=float))
    order = np.argsort(w)[::-1]
    return w[order], Q[:, order]


def min_eig(S: np.ndarray) -> float:
    if np.asarray(S).size == 0:
        return np.inf
    return float(np.linalg.eigvalsh(np.asarray(S, dtype=float))[0])


def max_eig(S: np.ndarray) -> float:
    if np.asarray(S).size == 0:
        return -np.inf
    return float(np.linalg.eigvalsh(np.asarray(S, dtype=float))[-1])


def sv(M: np.ndarray) -> np.ndarray:
    """Singular values, descending; length min(rows, cols)."""
    return np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric square root of a (numerically) PSD matrix."""
    w, Q = np.linalg.eigh(np.asarray(S, dtype=float))
    return (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.T
