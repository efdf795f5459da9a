"""Acceptance suite: one function per criterion, runnable as a whole.

Each criterion returns (ok, detail).  run_all prints one line per
criterion and returns True iff all pass.  Everything is seeded, so a
repeated run produces identical numbers.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from .gmf import ProblemData, eval_gmf, eval_gmf_oracle, grad_gmf
from .hset import (
    Fantope,
    Hull,
    Indicator,
    Linear,
    Ray,
    ShiftedPSDCap,
    Singleton,
    SpectralBox,
    Support,
    TraceBall,
)
from .infproj import (
    InfProjProblem,
    cq_report,
    dom_p_member,
    dual_value,
    eval_p,
    eval_p_conj,
)
from .numlin import min_eig, sv
from .smooth import FitSpec, solve_prox_reference, solve_smooth
from .vgf import (
    KyFanParams,
    VgfInstance,
    gauge_factor_sup,
    kyfan_norm,
    kyfan_vgf_identity,
    vgf_conj,
    vgf_eval,
    vgf_subdiff,
)


def _rand_sym(rng, n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def _rand_interior_instance(rng, n_max=6, m_max=6, l_max=3):
    """Random (pd, X, V) with consistent B and V interior to K_A."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    ell = int(rng.integers(1, l_max + 1))
    A = rng.standard_normal((ell, n))
    B = A @ rng.standard_normal((n, m))
    pd = ProblemData(A, B)
    X = rng.standard_normal((n, m))
    V = _rand_sym(rng, n)
    if pd.N.shape[1] > 0:
        t = min_eig(pd.N.T @ V @ pd.N)
    else:
        t = np.inf
    if t < 0.3:
        V = V + (0.3 - t) * np.eye(n)
    return pd, X, V


def criterion_01(seed=0):
    """Kernel-reduced GMF (eval_gmf) vs the bordered-matrix pseudoinverse
    (eval_gmf_oracle)."""
    rng = np.random.default_rng(seed)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        pd, X, V = _rand_interior_instance(rng)
        a = eval_gmf(pd, X, V).value
        b = eval_gmf_oracle(pd, X, V).value
        err = abs(a - b) / (1.0 + abs(b))
        worst = max(worst, err)
    dt = time.time() - t0
    ok = worst <= 1e-8 and dt < 10.0
    return ok, f"max rel err {worst:.2e}, {dt:.2f}s"


def criterion_02(seed=0):
    """Scalar special case phi(x, v) = x^2 / (2 v) for v > 0."""
    pd = ProblemData(np.zeros((1, 1)), np.zeros((1, 1)))
    cases = [
        ((1.0, 2.0), 0.25),
        ((1.0, 0.0), np.inf),
        ((0.0, 0.0), 0.0),
        ((1.0, -1.0), np.inf),
    ]
    bad = []
    for (x, v), want in cases:
        got = eval_gmf(pd, [[x]], [[v]]).value
        if not (got == want):
            bad.append(f"phi({x},{v})={got}, want {want}")
    return not bad, "; ".join(bad) if bad else "4/4 exact"


def criterion_03(seed=0):
    """Improper infimal projection: h(v) = -v drives p to -inf."""
    pd = ProblemData(np.zeros((1, 1)), np.zeros((1, 1)))
    prob = InfProjProblem(pd, Linear(np.array([[-1.0]])))
    pe = eval_p(prob, [[1.0]])
    if pe.status != "unbounded" or pe.unbounded_direction is None:
        return False, f"status {pe.status}, no certificate"
    D = pe.unbounded_direction
    # certificate: the objective decreases without bound along the ray
    base = np.eye(1) if pe.V is None else pe.V
    vals = []
    for t in (1.0, 1e2, 1e4):
        V = base + t * D
        vals.append(eval_gmf(pd, [[1.0]], V).value - float(V[0, 0]))
    descending = vals[0] > vals[1] > vals[2]
    rep = cq_report(prob)
    ok = descending and rep.bpcq == "fails"
    return ok, f"ray values {vals[0]:.3g} > {vals[1]:.3g} > {vals[2]:.3g}, bpcq {rep.bpcq}"


def criterion_04(seed=0):
    """Worked domain examples: a non-relatively-open dom p and a
    problem where the conjugate qualification fails but boundedness
    holds, with dom p = span{e1}."""
    bad = []
    A1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    B1 = np.array([[1.0], [1.0]])
    S1 = Hull((np.zeros((2, 2)), np.array([[2.0, 1.0], [1.0, 0.0]])))
    prob1 = InfProjProblem(ProblemData(A1, B1), Indicator(S1))
    for X, want in [
        (np.array([[0.5], [0.0]]), True),
        (np.array([[1.5], [0.0]]), False),
        (np.array([[1.5], [1.0]]), True),
    ]:
        found, _, _ = dom_p_member(prob1, X)
        if found != want:
            bad.append(f"dom p member {X.ravel()} = {found}, want {want}")

    A2 = np.array([[1.0, 0.0], [0.0, 0.0]])
    B2 = np.array([[1.0], [0.0]])
    S2 = Hull((np.zeros((2, 2)), np.diag([1.0, 0.0])))
    prob2 = InfProjProblem(ProblemData(A2, B2), Indicator(S2))
    rep = cq_report(prob2)
    if rep.ccq != "fails" or rep.bpcq != "holds":
        bad.append(f"cq report ccq={rep.ccq} bpcq={rep.bpcq}")
    for X, want in [
        (np.array([[2.0], [0.0]]), True),
        (np.array([[0.0], [1.0]]), False),
        (np.array([[1.0], [1.0]]), False),
    ]:
        found, _, _ = dom_p_member(prob2, X)
        if found != want:
            bad.append(f"span(e1) member {X.ravel()} = {found}, want {want}")
    return not bad, "; ".join(bad) if bad else "both examples reproduced"


def _nuclear_instances(seed, count=50):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        X = rng.standard_normal((n, m))
        Ls = [np.eye(n)]
        for _ in range(2):
            M = rng.standard_normal((n, n))
            Ls.append(M @ M.T + 0.2 * np.eye(n))
        out.append((X, Ls))
    return out


def criterion_05(seed=0):
    """Weighted nuclear norm: p with linear h(V) = <L L^T / 2, V>
    equals |L^T X|_* computed by SVD."""
    worst = 0.0
    for X, Ls in _nuclear_instances(seed):
        n, m = X.shape
        pd = ProblemData(np.zeros((1, n)), np.zeros((1, m)))
        for L in Ls:
            prob = InfProjProblem(pd, Linear(0.5 * L @ L.T))
            got = eval_p(prob, X).value
            ref = float(np.sum(sv(L.T @ X)))
            worst = max(worst, abs(got - ref) / (1.0 + ref))
    return worst <= 1e-6, f"max rel err {worst:.2e}"


def criterion_06(seed=0):
    """Zero duality gap on the weighted nuclear norm instances: the dual
    objective <X, Y> - p*(Y) at dual_value's Y, with p* recomputed by
    eval_p_conj (whose own test YY^T/2 <= U puts Y in Xi), equals p(X)."""
    worst = 0.0
    for X, Ls in _nuclear_instances(seed):
        n, m = X.shape
        pd = ProblemData(np.zeros((1, n)), np.zeros((1, m)))
        for L in Ls:
            prob = InfProjProblem(pd, Linear(0.5 * L @ L.T))
            p = eval_p(prob, X).value
            _, Y, _ = dual_value(prob, X)
            pstar, status = eval_p_conj(prob, Y)
            if status != "exact":
                return False, "conjugate undecided"
            d = float(np.sum(X * Y)) - pstar
            worst = max(worst, abs(p - d) / (1.0 + abs(p)))
    return worst <= 1e-6, f"max gap {worst:.2e}"


def _grid_fenchel(fn, y_sv, radius, coarse_grid, coarse_vals, refine=3):
    """sup over nonneg sorted singular values of <y, x> - fn(x).

    Both fn and its conjugate are orthogonally invariant in the callers,
    so the supremum aligns singular vectors and collapses to singular
    values; fn is convex there, so a coarse grid with memoized values
    plus local refinement converges."""
    k = len(y_sv)

    def score_val(svals, v):
        if not np.isfinite(v):
            return -np.inf
        return float(np.dot(y_sv, svals[:k])) - v

    best_i = int(
        np.argmax([score_val(p, v) for p, v in zip(coarse_grid, coarse_vals)])
    )
    best = np.asarray(coarse_grid[best_i], dtype=float)
    best_score = score_val(best, coarse_vals[best_i])
    h = radius / (len(set(p[0] for p in coarse_grid)) - 1)
    for _ in range(refine):
        steps = np.linspace(-h, h, 7)
        if k == 1:
            local = [np.array([max(best[0] + d, 0.0)]) for d in steps]
        else:
            local = [
                np.maximum(best + np.array([da, db]), 0.0)
                for da in steps
                for db in steps
            ]
        for p in local:
            s = score_val(p, fn(p))
            if s > best_score:
                best, best_score = p, s
        h /= 3.0
    return best_score


def criterion_07(seed=0):
    """Conjugate of p for indicator h vs a brute-force Fenchel grid."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for S in (SpectralBox(0.0, 1.0, 2), Fantope(1, 2), TraceBall(1.0, 2)):
        for m in (1, 2):
            pd = ProblemData(np.zeros((1, 2)), np.zeros((1, m)))
            prob = InfProjProblem(pd, Indicator(S))
            cache = {}

            def p_of(svals):
                key = tuple(np.round(svals, 12))
                if key not in cache:
                    X = np.zeros((2, m))
                    for i, s in enumerate(svals[: min(2, m)]):
                        X[i, i] = s
                    cache[key] = eval_p(prob, X).value
                return cache[key]

            Ys = [rng.standard_normal((2, m)) for _ in range(3)]
            radius = 2.5 * (1.0 + max(float(sv(Y)[0]) for Y in Ys))
            axis = np.linspace(0.0, radius, 25)
            if m == 1:
                grid = [np.array([a]) for a in axis]
            else:
                grid = [np.array([a, b]) for a in axis for b in axis if b <= a]
            vals = [p_of(p) for p in grid]
            for Y in Ys:
                want, status = eval_p_conj(prob, Y)
                if status != "exact":
                    return False, f"conjugate undecided for {S}"
                got = _grid_fenchel(p_of, sv(Y), radius, grid, vals)
                worst = max(worst, abs(got - want))
    return worst <= 1e-3, f"max abs err {worst:.2e}"


def criterion_08(seed=0):
    """VGF suite: the delta_0 example, homogeneity and convexity,
    conjugates against a Fenchel grid, and Fenchel-Young for every
    subdifferential witness."""
    rng = np.random.default_rng(seed)
    bad = []

    # Phi over the ray through I with m = 1 is the indicator of {0}
    ray = VgfInstance(Ray(np.eye(2)), 1)
    if vgf_eval(ray, np.zeros((2, 1)))[0] != 0.0:
        bad.append("Phi(0) != 0 on the ray instance")
    for _ in range(10):
        Y = rng.standard_normal((2, 1))
        if np.linalg.norm(Y) > 1e-9 and vgf_eval(ray, Y)[0] != np.inf:
            bad.append("Phi finite off 0 on the ray instance")
            break

    insts = [VgfInstance(SpectralBox(0.0, 1.0, 3), 2), VgfInstance(TraceBall(1.0, 3), 2)]
    worst_h = worst_c = 0.0
    for _ in range(100):
        inst = insts[int(rng.integers(len(insts)))]
        Y1 = rng.standard_normal((3, 2))
        Y2 = rng.standard_normal((3, 2))
        t = float(rng.uniform(0.1, 3.0))
        f1, f2 = vgf_eval(inst, Y1)[0], vgf_eval(inst, Y2)[0]
        worst_h = max(worst_h, abs(vgf_eval(inst, t * Y1)[0] - t * t * f1) / (1.0 + f1))
        mid = vgf_eval(inst, 0.5 * (Y1 + Y2))[0]
        worst_c = max(worst_c, mid - 0.5 * (f1 + f2))
    if worst_h > 1e-8:
        bad.append(f"homogeneity err {worst_h:.2e}")
    if worst_c > 1e-8:
        bad.append(f"convexity violation {worst_c:.2e}")

    worst_g = 0.0
    for S in (SpectralBox(0.0, 1.0, 2), TraceBall(1.0, 2)):
        inst = VgfInstance(S, 2)

        def phi_of(svals):
            return vgf_eval(inst, np.diag(svals))[0]

        Xs = [rng.standard_normal((2, 2)) for _ in range(3)]
        radius = 3.0 * (1.0 + max(float(sv(X)[0]) for X in Xs))
        axis = np.linspace(0.0, radius, 25)
        grid = [np.array([a, b]) for a in axis for b in axis if b <= a]
        vals = [phi_of(p) for p in grid]
        for X in Xs:
            want = vgf_conj(inst, X)[0]
            got = _grid_fenchel(phi_of, sv(X), radius, grid, vals)
            worst_g = max(worst_g, abs(got - want))
    if worst_g > 1e-3:
        bad.append(f"conjugate grid err {worst_g:.2e}")

    worst_fy = 0.0
    for _ in range(20):
        inst = insts[int(rng.integers(len(insts)))]
        Y = rng.standard_normal((3, 2))
        _, _, gap = vgf_subdiff(inst, Y)
        worst_fy = max(worst_fy, abs(gap))
    if worst_fy > 1e-6:
        bad.append(f"Fenchel-Young gap {worst_fy:.2e}")
    return not bad, "; ".join(bad) if bad else (
        f"hom {worst_h:.1e}, conj grid {worst_g:.1e}, FY {worst_fy:.1e}"
    )


def criterion_09(seed=0):
    """Phi equals half the squared factor gauge, checked against the
    Frobenius and spectral closed forms."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        Y = rng.standard_normal((n, m))
        for S, closed in (
            (SpectralBox(0.0, 1.0, n), float(np.linalg.norm(Y))),
            (TraceBall(1.0, n), float(sv(Y)[0]) if min(n, m) else 0.0),
        ):
            inst = VgfInstance(S, m)
            phi = vgf_eval(inst, Y)[0]
            g = gauge_factor_sup(inst, Y)
            worst = max(worst, abs(phi - 0.5 * g * g) / (1.0 + phi))
            worst = max(worst, abs(g - closed) / (1.0 + closed))
    return worst <= 1e-6, f"max rel err {worst:.2e}"


def criterion_10(seed=0):
    """Ky Fan bridge: |X|_{2,k}^2 / 2 equals Phi over the Fantope, and
    the nuclear, Frobenius, and spectral special cases match the SVD."""
    rng = np.random.default_rng(seed)
    worst_id = worst_sp = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        X = rng.standard_normal((n, m))
        s = sv(X)
        for k in range(1, min(n, m) + 1):
            lhs, rhs, _ = kyfan_vgf_identity(KyFanParams(2.0, k), X)
            worst_id = max(worst_id, abs(lhs - rhs) / (1.0 + abs(lhs)))
        r = min(n, m)
        worst_sp = max(
            worst_sp,
            abs(kyfan_norm(KyFanParams(1.0, r), X) - float(np.sum(s))),
            abs(kyfan_norm(KyFanParams(2.0, r), X) - float(np.linalg.norm(X))),
            abs(kyfan_norm(KyFanParams(np.inf, 1), X) - float(s[0])),
        )
    ok = worst_id <= 1e-8 and worst_sp <= 1e-10
    return ok, f"identity err {worst_id:.2e}, special cases {worst_sp:.2e}"


def criterion_11(seed=0):
    """grad_gmf against central finite differences in X and V."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        pd, X, V = _rand_interior_instance(rng, n_max=4, m_max=3, l_max=2)
        GX, GV = grad_gmf(pd, X, V)
        scale = 1.0 + float(np.sqrt(np.linalg.norm(GX) ** 2 + np.linalg.norm(GV) ** 2))
        h = 1e-4
        for i in range(pd.n):
            for j in range(pd.m):
                E = np.zeros_like(X)
                E[i, j] = h
                fd = (
                    eval_gmf(pd, X + E, V).value - eval_gmf(pd, X - E, V).value
                ) / (2 * h)
                worst = max(worst, abs(fd - GX[i, j]) / scale)
        for i in range(pd.n):
            for j in range(i, pd.n):
                E = np.zeros_like(V)
                E[i, j] = E[j, i] = h
                fd = (
                    eval_gmf(pd, X, V + E).value - eval_gmf(pd, X, V - E).value
                ) / (2 * h)
                want = (2.0 - (i == j)) * GV[i, j]
                worst = max(worst, abs(fd - want) / scale)
    return worst <= 1e-5, f"max rel err {worst:.2e}"


def criterion_12(seed=0):
    """Smoothed nuclear norm solver: soft-threshold oracle in 1x1 and
    agreement with the proximal reference on seeded completions."""
    t0 = time.time()
    bad = []
    fit = FitSpec(A_op=np.eye(1), b=np.array([3.0]), n=1, m=1)
    pd = ProblemData(np.zeros((1, 1)), np.zeros((1, 1)))
    tr = solve_smooth(fit, pd, 0.5 * np.eye(1))
    err = abs(tr.final_X[0, 0] - 2.0)
    if err > 1e-6:
        bad.append(f"1x1 err {err:.2e}")

    rng = np.random.default_rng(seed + 7)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(4, 9))
        M = rng.standard_normal((n, 2)) @ rng.standard_normal((2, m))
        mask = rng.random((n, m)) < 0.8
        fit = FitSpec.from_mask(mask, M)
        lam = 0.4
        pd = ProblemData(np.zeros((1, n)), np.zeros((1, m)))
        tr = solve_smooth(fit, pd, 0.5 * lam * lam * np.eye(n))
        Xr = solve_prox_reference(fit, np.eye(n), lam)
        d = float(np.linalg.norm(tr.final_X - Xr))
        lim = 1e-4 * (1.0 + float(np.linalg.norm(Xr)))
        worst = max(worst, d / lim)
        Fs = [f for f, _, _ in tr.iterates]
        if any(Fs[i + 1] > Fs[i] + 1e-12 for i in range(len(Fs) - 1)):
            bad.append("non-monotone trace")
        if any(me <= 0 for _, _, me in tr.iterates):
            bad.append("non-interior iterate")
    if worst > 1.0:
        bad.append(f"agreement ratio {worst:.2f}")
    dt = time.time() - t0
    if dt >= 60.0:
        bad.append(f"runtime {dt:.1f}s")
    return not bad, "; ".join(bad) if bad else (
        f"1x1 err {err:.1e}, worst agreement ratio {worst:.2f}, {dt:.1f}s"
    )


def _rand_set(rng, n):
    choice = int(rng.integers(7))
    if choice == 0:
        M = rng.standard_normal((n, n))
        return Singleton(M @ M.T)
    if choice == 1:
        lo = float(rng.choice([0.0, -0.5]))
        return SpectralBox(lo, float(rng.uniform(0.5, 2.0)), n)
    if choice == 2:
        return TraceBall(float(rng.uniform(0.5, 2.0)), n)
    if choice == 3:
        return Fantope(int(rng.integers(1, n + 1)), n)
    if choice == 4:
        pts = [_rand_sym(rng, n) for _ in range(int(rng.integers(2, 4)))]
        if rng.random() < 0.5:
            pts[0] = np.zeros((n, n))
        return Hull(tuple(pts))
    if choice == 5:
        return Ray(_rand_sym(rng, n))
    M = rng.standard_normal((n, n))
    return ShiftedPSDCap(M @ M.T + 0.1 * np.eye(n))


def criterion_13(seed=0):
    """Constraint qualification implications hold on 500 random
    problems: boundedness implies the strong primal condition implies
    the primal condition, and with no equality constraint the three
    coincide for indicator h."""
    rng = np.random.default_rng(seed)
    order = {"fails": 0, "holds": 1}
    violations = 0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        if rng.random() < 0.4:
            A = np.zeros((1, n))
            B = np.zeros((1, m))
        else:
            ell = int(rng.integers(1, 3))
            A = rng.standard_normal((ell, n))
            B = A @ rng.standard_normal((n, m))
        kind = int(rng.integers(3))
        if kind == 0:
            M = rng.standard_normal((n, n))
            h = Linear(M @ M.T if rng.random() < 0.7 else 0.5 * (M + M.T))
        elif kind == 1:
            h = Indicator(_rand_set(rng, n))
        else:
            h = Support(_rand_set(rng, n))
        prob = InfProjProblem(ProblemData(A, B), h)
        rep = cq_report(prob)
        chain = [rep.bpcq, rep.spcq, rep.pcq]
        for a, b in zip(chain, chain[1:]):
            if a in order and b in order and order[a] > order[b]:
                violations += 1
        if not np.any(A) and not np.any(B) and isinstance(h, Indicator):
            decided = [v for v in chain if v in order]
            if len({order[v] for v in decided}) > 1:
                violations += 1
    return violations == 0, f"{violations} violations in 500 instances"


CRITERIA = [
    ("gmf closed form vs oracle", criterion_01),
    ("scalar gmf special case", criterion_02),
    ("improper infimal projection", criterion_03),
    ("domain examples", criterion_04),
    ("weighted nuclear norm", criterion_05),
    ("zero duality gap", criterion_06),
    ("indicator conjugate vs grid", criterion_07),
    ("vgf suite", criterion_08),
    ("squared gauge representation", criterion_09),
    ("ky fan bridge", criterion_10),
    ("gradient check", criterion_11),
    ("smoothing solver", criterion_12),
    ("cq implication chain", criterion_13),
]


def run_all(seed=0, stream=None):
    stream = stream or sys.stdout
    all_ok = True
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        ok, detail = fn(seed)
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        print(f"criterion {i:02d} {name}: {status} ({detail})", file=stream)
    return all_ok
