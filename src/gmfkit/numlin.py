"""Shared tolerances, the validation boundary and small dense helpers.

Rank decisions use one relative cutoff, rank_rel times the largest
singular value (or largest |eigenvalue|), but each is taken where its
factorization is: ProblemData reads rank A, ker A and A^+ off one SVD of
A, and a set rule reads a range off the eigendecomposition it already
holds (live_range), so no rule factors one matrix twice.

The factorizations that run per evaluation call LAPACK directly through
lapack(), at about a third of numpy.linalg's per-call cost on the 2x2-4x4
matrices of the spectral closed forms: svd (dgesdd), sym_eig
(dsyevd), and gmf's and smooth's dpotrf, dgesv, dtrtri, dgetrf and
dgetri.  The ones that building a problem runs stay on numpy.linalg:
ProblemData's SVD of A, min_eig and max_eig (which set constructors
call), sv and psd_sqrt.  Importing scipy.linalg takes ~0.24 s, which a
process that only builds problems should not pay.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

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
        return {f.name: getattr(self, f.name) for f in fields(self)}

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


@functools.cache
def lapack():
    """scipy.linalg.lapack, imported on first use: gmfkit loads no scipy
    on import, and that import costs ~0.24 s."""
    import scipy.linalg.lapack

    return scipy.linalg.lapack


def svd(M: np.ndarray, full_matrices: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, s, W^T) with M = U diag(s) W^T, s descending, as np.linalg.svd
    gives them: one dgesdd call."""
    U, s, Wt, info = lapack().dgesdd(M, full_matrices=full_matrices)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    return U, s, Wt


def sym_eig(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors of
    the symmetric matrix whose lower triangle S holds, as np.linalg.eigh
    reads it: one dsyevd call, reversed.  The reversed views are copied:
    numpy's dot and matmul skip BLAS on negative strides, and the rounding
    of what callers compute from them would change."""
    w, Q, info = lapack().dsyevd(S, lower=1)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w[::-1].copy(), Q[:, ::-1].copy()


def live_range(w: np.ndarray, Q: np.ndarray, G: np.ndarray, tol: Tolerances):
    """Mask of the eigenvalues w > rank_rel * max |w| of a PSD Q diag(w) Q^T,
    whose eigenvectors span its range; None if G has a part off that range."""
    live = w > tol.rank_rel * np.max(np.abs(w), initial=0.0)
    off = np.linalg.norm(Q[:, ~live].T @ G) > tol.feas_abs * (1.0 + np.linalg.norm(G))
    return None if off else live


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
