import sys
from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts numpy.linalg factorizations from here on: "eigh" counts eigh
    and eigvalsh, "svd" counts svd and pinv (whose SVD calls numpy's
    internal svd, not the patched one)."""
    counts = Counter()
    for name, key in (("eigh", "eigh"), ("eigvalsh", "eigh"), ("svd", "svd"), ("pinv", "svd")):

        def counted(*args, _fn=getattr(np.linalg, name), _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


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
