"""Solve the benchmark's solve_path instances and print how well the
smoothed solver certified them.

    python tools/solve_gaps.py SEED [SEED ...]

For each seed it builds the solve_path recipe from gmfkit alone: with
rng = numpy.random.default_rng([seed, 5]), for n = 8, 16, 24, 32 in turn
(10, 12, 4 and 2 instances), a rank-2 target
rng.standard_normal((n, 2)) @ rng.standard_normal((2, n)) observed
where rng.random((n, n)) < 0.8, fitted with p = lam |X|_* at lam = 0.4
(Ubar = lam^2 I / 2).  It runs `solve_smooth` on each, with BLAS pinned
to one thread and gmfkit imported from the `src` folder beside this
script, and prints per seed and over all seeds the number of solves,
the objective evaluations per solve, the count of each status and the
max, p99 and median of the relative dual gap
`SolveTrace.dual_gap / (1 + |P|)`, P = f(X) + lam |X|_*.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from pathlib import Path

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAM = 0.4
SOLVE_MIX = {8: 10, 16: 12, 24: 4, 32: 2}


def solve_gaps(seed: int, mix: dict = SOLVE_MIX) -> list:
    """(n, status, evaluations, relative gap) of each solve of one seed's
    recipe, in build order; a mix that lists fewer sizes or instances
    solves a prefix of the recipe."""
    import numpy as np

    from gmfkit import FitSpec, ProblemData, solve_smooth
    from gmfkit.numlin import sv

    rng = np.random.default_rng([seed, 5])
    rows = []
    for n, count in mix.items():
        for _ in range(count):
            M = rng.standard_normal((n, 2)) @ rng.standard_normal((2, n))
            fit = FitSpec.from_mask(rng.random((n, n)) < 0.8, M)
            pd = ProblemData(np.zeros((1, n)), np.zeros((1, n)))
            tr = solve_smooth(fit, pd, 0.5 * LAM * LAM * np.eye(n))
            P = fit.value_and_grad(tr.final_X)[0] + LAM * float(np.sum(sv(tr.final_X)))
            nfev = sum(st.nfev for st in tr.stages)
            rows.append((n, tr.status, nfev, tr.dual_gap / (1.0 + abs(P))))
    return rows


def summary(label: str, rows: list) -> str:
    """One line: solves, evaluations per solve, statuses, gap quantiles."""
    import numpy as np

    gaps = np.array([r[3] for r in rows])
    statuses = ", ".join(f"{s} {c}" for s, c in sorted(Counter(r[1] for r in rows).items()))
    return (
        f"{label}: {len(rows)} solves, {np.mean([r[2] for r in rows]):.1f} evaluations per solve, "
        f"{statuses}; relative gap max {gaps.max():.2e} p99 {np.percentile(gaps, 99):.2e} "
        f"median {np.median(gaps):.2e}"
    )


def main(argv=None) -> int:
    seeds = [int(a) for a in (sys.argv[1:] if argv is None else argv)]
    if not seeds:
        print("usage: python tools/solve_gaps.py SEED [SEED ...]", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    every = []
    for seed in seeds:
        rows = solve_gaps(seed)
        print(summary(f"seed {seed}", rows), flush=True)
        every += rows
    if len(seeds) > 1:
        print(summary("all", every))
    return 0


if __name__ == "__main__":
    sys.exit(main())
