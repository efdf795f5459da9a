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
