import sys
from collections import Counter

import numpy as np
import pytest


_FACTORIZATIONS = (
    "eigh", "eigvalsh", "eig", "eigvals", "svd", "pinv", "cholesky", "qr",
    "inv", "solve", "lstsq", "slogdet", "det", "matrix_rank",
)
# linalg_calls' keys: "eigh" counts eigh and eigvalsh, "svd" counts svd and
# pinv (whose SVD calls numpy's internal svd, not the patched one)
_CALL_KEYS = {"eigh": "eigh", "eigvalsh": "eigh", "svd": "svd", "pinv": "svd"}


class _Inputs(Counter):
    """Counts each numpy.linalg factorization by the shape and bytes of the
    matrix it factors, whichever function factors it."""

    def repeats(self):
        """(shape, count) of each matrix factored more than once."""
        return [(shape, c) for (shape, _), c in self.items() if c > 1]


@pytest.fixture
def _linalg_record(monkeypatch):
    """Patches each numpy.linalg factorization once and tallies every call
    from here on twice: by linalg_calls' key and by input matrix."""
    calls, inputs = Counter(), _Inputs()
    for name in _FACTORIZATIONS:

        def recorded(a, *args, _fn=getattr(np.linalg, name), _key=_CALL_KEYS.get(name), **kwargs):
            if _key:
                calls[_key] += 1
            b = np.ascontiguousarray(a, dtype=float)
            inputs[(b.shape, b.tobytes())] += 1
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls, inputs


@pytest.fixture
def linalg_calls(_linalg_record):
    """Counts numpy.linalg factorizations from here on, by _CALL_KEYS."""
    return _linalg_record[0]


@pytest.fixture
def linalg_inputs(_linalg_record):
    """The numpy.linalg factorizations from here on, keyed by input matrix;
    repeats() lists the matrices factored twice or more since the last
    clear()."""
    return _linalg_record[1]


@pytest.fixture
def sym_calls(monkeypatch):
    """Records the shape of each matrix passed to the checked numlin.sym
    from here on, through every gmfkit module's binding of it."""
    import gmfkit.numlin

    real, shapes = gmfkit.numlin.sym, []

    def counted(S, *args, **kwargs):
        shapes.append(np.shape(S))
        return real(S, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "gmfkit" and getattr(mod, "sym", None) is real:
            monkeypatch.setattr(mod, "sym", counted)
    return shapes
