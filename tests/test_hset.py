import itertools
import json

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfkit.gmf import ProblemData
from gmfkit.hset import (
    Fantope,
    Halfspace,
    Hull,
    Indicator,
    Linear,
    Ray,
    ShiftedPSDCap,
    Singleton,
    SpectralBox,
    SpectralSet,
    Support,
    TraceBall,
    _project_capped_simplex,
    gauge,
    h_conj,
    h_eval,
    hspec_from_json,
    hspec_to_json,
    member,
    project,
    psd_cap_support,
    set_from_json,
    set_to_json,
    support,
)
from gmfkit.infproj import InfProjProblem
from gmfkit.numlin import DEFAULT_TOL, max_eig, min_eig
from gmfkit.smooth import FitSpec
from gmfkit.vgf import VgfInstance

rng = np.random.default_rng(2)


def rand_sym(n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


ALL_SETS = [
    Singleton(np.array([[2.0, 0.0], [0.0, 1.0]])),
    SpectralBox(0.0, 1.0, 2),
    SpectralBox(-0.5, 1.5, 2),
    TraceBall(1.0, 2),
    Fantope(1, 2),
    Hull((np.zeros((2, 2)), np.array([[2.0, 1.0], [1.0, 0.0]]))),
    Ray(np.eye(2)),
    ShiftedPSDCap(np.eye(2)),
]


def test_boundedness_classification():
    assert SpectralBox(0.0, 1.0, 2).bounded
    assert TraceBall(2.0, 3).bounded
    assert Fantope(2, 3).bounded
    assert Singleton(np.eye(2)).bounded
    assert Hull((np.zeros((2, 2)), np.eye(2))).bounded
    assert ShiftedPSDCap(np.eye(2)).bounded
    assert not Ray(np.eye(2)).bounded


def test_contains_zero():
    assert SpectralBox(0.0, 1.0, 2).contains_zero(DEFAULT_TOL)
    assert TraceBall(1.0, 2).contains_zero(DEFAULT_TOL)
    assert Ray(np.eye(2)).contains_zero(DEFAULT_TOL)
    assert not Singleton(np.eye(2)).contains_zero(DEFAULT_TOL)


@pytest.mark.parametrize("S", ALL_SETS, ids=lambda S: type(S).__name__)
def test_contains_zero_is_member_of_zero(S):
    assert S.contains_zero(DEFAULT_TOL) == S.member(np.zeros((S.n, S.n)), DEFAULT_TOL)


def test_interior_member_of_a_point_and_at_a_vertex():
    # the box [I, I] is the one point I: ri S = S, int S is empty
    assert SpectralBox(1.0, 1.0, 2).interior_member(np.eye(2), DEFAULT_TOL) == (True, False)
    # a vertex's weight is 0, within feas_abs of the LP's ri test: undecided
    assert Hull((np.zeros((2, 2)), np.eye(2))).interior_member(np.zeros((2, 2)), DEFAULT_TOL) == (None, None)


def test_support_values_closed_forms():
    G = np.diag([3.0, -1.0])
    val, W = support(SpectralBox(0.0, 1.0, 2), G)
    assert val == pytest.approx(3.0)  # positive part of the spectrum
    val, _ = support(TraceBall(1.0, 2), G)
    assert val == pytest.approx(3.0)  # top eigenvalue
    val, _ = support(Fantope(1, 2), G)
    assert val == pytest.approx(3.0)
    val, _ = support(Singleton(np.eye(2)), G)
    assert val == pytest.approx(2.0)  # trace inner product
    val, _ = support(Ray(np.eye(2)), G)
    assert val == np.inf  # positive trace direction is unbounded
    val, _ = support(Ray(np.eye(2)), -np.eye(2))
    assert val == pytest.approx(0.0)


def test_support_witness_attains():
    for S in ALL_SETS:
        G = rand_sym(2)
        val, W = support(S, G)
        if np.isfinite(val) and W is not None:
            assert member(S, W) or np.sum(W * G) <= val + 1e-7
            assert np.sum(W * G) == pytest.approx(val, abs=1e-7)


def _vector_support_lp(w, lo, cap, total):
    """max <lam, w> over {lo <= lam_i <= cap, sum lam <= total} by LP."""
    budget = {} if np.isinf(total) else {"A_ub": np.ones((1, w.size)), "b_ub": [total]}
    res = scipy.optimize.linprog(-w, bounds=[(lo, cap)] * w.size, **budget)
    assert res.status == 0
    return -res.fun


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["box", "ball", "fantope"]), st.integers(0, 10**6))
def test_spectral_support_matches_the_vector_lp(kind, seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 5))
    lo, hi = np.sort(g.uniform(-2.0, 2.0, 2))
    S = {
        "box": SpectralBox(lo, hi, n),
        "ball": TraceBall(g.uniform(0.0, 3.0), n),
        "fantope": Fantope(int(g.integers(1, n + 1)), n),
    }[kind]
    M = g.standard_normal((n, n))
    G = M + M.T
    w = np.linalg.eigvalsh(G)
    val, W = support(S, G)
    assert val == pytest.approx(_vector_support_lp(w, S.lo, S.cap, S.total), abs=1e-9)
    assert member(S, W) and np.sum(W * G) == pytest.approx(val, abs=1e-9)
    val, W = psd_cap_support(S, G)
    if S.cap < 0.0:
        assert val == -np.inf
    else:
        ref = _vector_support_lp(w, max(S.lo, 0.0), S.cap, S.total)
        assert val == pytest.approx(ref, abs=1e-9)
        assert np.linalg.eigvalsh(W)[0] >= -1e-9 and member(S, W)


def test_psd_cap_support_spectral_box():
    G = np.diag([1.0, -2.0])
    val, V = psd_cap_support(SpectralBox(-1.0, 1.0, 2), G)
    # over the PSD part only the positive spectrum contributes
    assert val == pytest.approx(1.0)
    assert np.linalg.eigvalsh(V).min() >= -1e-9


def test_psd_cap_support_of_a_mixed_hull_reaches_a_psd_point_between_vertices():
    # the best PSD vertex diag(0, 1) gave 0 at G = diag(1, 0), reported as
    # the support, but w = (1/2, 1/2, 0) reaches the PSD point diag(1, 0),
    # worth 1: the cut of diag(2, -1)'s lambda_min leaves it the LP's maximum
    S = Hull((np.diag([2.0, -1.0]), np.diag([0.0, 1.0]), np.diag([-1.0, -1.0])))
    val, W = psd_cap_support(S, np.diag([1.0, 0.0]))
    assert val == pytest.approx(1.0, abs=1e-12) and np.allclose(W, np.diag([1.0, 0.0]), atol=1e-12)
    # where the best vertex is PSD, it answers
    val, W = psd_cap_support(S, np.diag([0.0, 1.0]))
    assert val == 1.0 and np.array_equal(W, np.diag([0.0, 1.0]))
    assert psd_cap_support(S, np.zeros((2, 2)))[0] == 0.0
    assert S.max_min_eig(np.eye(2), DEFAULT_TOL) >= -DEFAULT_TOL.psd_abs


def test_a_set_meets_the_psd_cone_and_is_bounded():
    # VgfInstance reads whether S meets PSD off the CCQ slack at A = 0,
    # sup over S of lambda_min; a hull with no PSD vertex is decided too
    assert VgfInstance(SpectralBox(0.0, 1.0, 2), 1).prob._ka_slack == 1.0
    with pytest.raises(ValueError, match="PSD cone"):
        VgfInstance(Singleton(-np.eye(2)), 1)
    mixed = Hull((np.diag([2.0, -1.0]), np.diag([-1.0, 2.0])))  # holds diag(1/2, 1/2)
    assert VgfInstance(mixed, 1).prob._ka_slack >= -DEFAULT_TOL.psd_abs
    with pytest.raises(ValueError, match="PSD cone"):
        VgfInstance(Hull((np.diag([1.0, -1.0]), np.diag([-1.0, -2.0]))), 1)
    free = ProblemData(np.zeros((1, 2)), np.zeros((1, 1)))  # K_A is the PSD cone
    assert TraceBall(1.0, 2).ka_bounded(free)
    assert not Ray(np.eye(2)).ka_bounded(free)


def test_member():
    assert member(SpectralBox(0.0, 1.0, 2), 0.5 * np.eye(2))
    assert not member(SpectralBox(0.0, 1.0, 2), 2.0 * np.eye(2))
    assert member(TraceBall(1.0, 2), np.diag([0.5, 0.5]))
    assert not member(TraceBall(1.0, 2), np.diag([0.8, 0.8]))
    assert member(Hull((np.zeros((2, 2)), np.eye(2))), 0.25 * np.eye(2))
    assert not member(Hull((np.zeros((2, 2)), np.eye(2))), -0.1 * np.eye(2))
    assert member(Ray(np.eye(2)), 7.0 * np.eye(2))
    assert not member(Ray(np.eye(2)), np.diag([1.0, 2.0]))


def test_project_into_set():
    for S in ALL_SETS:
        V = rand_sym(2)
        P = project(S, V)
        assert member(S, P) or np.linalg.norm(P - project(S, P)) <= 1e-6


def test_project_fixed_point_on_members():
    S = SpectralBox(0.0, 1.0, 2)
    V = 0.3 * np.eye(2)
    assert np.allclose(project(S, V), V, atol=1e-10)


def test_gauge_closed_forms():
    G = np.diag([2.0, 1.0])
    assert gauge(SpectralBox(0.0, 1.0, 2), G) == pytest.approx(2.0)
    assert gauge(TraceBall(1.0, 2), G) == pytest.approx(3.0)


def test_gauge_homogeneous():
    S = TraceBall(1.0, 2)
    G = np.diag([1.0, 0.5])
    assert gauge(S, 2.0 * G) == pytest.approx(2.0 * gauge(S, G), rel=1e-6)


@pytest.mark.parametrize(
    "S",
    [
        Fantope(1, 2),
        ShiftedPSDCap(np.eye(2)),
        Hull((np.zeros((2, 2)), np.eye(2))),
        Ray(np.eye(2)),
    ],
    ids=lambda S: type(S).__name__,
)
def test_gauge_is_infinite_outside_the_cone(S):
    # diag(1, -1) is not PSD, so no multiple of it lies in any of these sets
    assert gauge(S, np.diag([1.0, -1.0])) == np.inf


def test_gauge_exact_forms():
    assert gauge(SpectralBox(-1.0, 2.0, 2), np.diag([1.0, -1.0])) == pytest.approx(1.0)
    assert gauge(Fantope(1, 3), np.diag([0.5, 0.5, 0.0])) == pytest.approx(1.0)
    assert gauge(TraceBall(0.0, 2), np.diag([1.0, 0.0])) == np.inf
    U = np.diag([2.0, 0.0])
    assert gauge(ShiftedPSDCap(U), np.diag([3.0, 0.0])) == pytest.approx(1.5)
    assert gauge(ShiftedPSDCap(U), np.eye(2)) == np.inf  # leaves rge U
    hull = Hull((np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 2.0])))
    assert gauge(hull, np.diag([1.0, 1.0])) == pytest.approx(1.5)
    assert gauge(Ray(np.eye(2)), 3.0 * np.eye(2)) == 0.0
    assert gauge(Singleton(np.zeros((2, 2))), np.zeros((2, 2))) == 0.0
    assert gauge(Singleton(np.zeros((2, 2))), np.eye(2)) == np.inf


def _gauge_instance(kind, g):
    """A set containing 0 and a point G of the cone it generates."""
    n = int(g.integers(1, 4))
    R, M = g.standard_normal((2, n, n))
    psd = R @ R.T
    if kind == "box":
        return SpectralBox(-g.uniform(0.1, 2.0), g.uniform(0.1, 2.0), n), M + M.T
    if kind == "ball":
        return TraceBall(g.uniform(0.1, 3.0), n), psd
    if kind == "fantope":
        return Fantope(int(g.integers(1, n + 1)), n), psd
    if kind == "cap":
        return ShiftedPSDCap(psd + 0.1 * np.eye(n)), M @ M.T
    pts = [np.zeros((n, n))] + [U + U.T for U in g.standard_normal((int(g.integers(1, 4)), n, n))]
    G = sum(c * U for c, U in zip(g.uniform(0.0, 2.0, len(pts)), pts))
    return Hull(pts), G


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["box", "ball", "fantope", "cap", "hull"]), st.integers(0, 10**6))
def test_gauge_scales_onto_the_boundary(kind, seed):
    S, G = _gauge_instance(kind, np.random.default_rng(seed))
    g = gauge(S, G)
    assert np.isfinite(g)
    if g > 1e-6:
        assert member(S, G / g)
        assert not member(S, G / (0.99 * g))


def _max_min_eig_closed_form(S, N):
    """sup over S of lambda_min(N^T V N) where a closed form is known."""
    if isinstance(S, (Singleton, ShiftedPSDCap)):
        return min_eig(N.T @ S.U @ N)
    if isinstance(S, Ray):
        return np.inf if min_eig(N.T @ S.D @ N) > 0 else 0.0
    if isinstance(S, SpectralSet):
        return min(S.cap, S.total / N.shape[1])
    return None


@pytest.mark.parametrize(
    "S", ALL_SETS + [Ray(np.diag([1.0, -1.0]))], ids=lambda S: type(S).__name__
)
def test_max_min_eig_bounds_every_member(S):
    g = np.random.default_rng(3)
    n = S.n
    dominated = set()
    for trial in range(12):
        N, _ = np.linalg.qr(g.standard_normal((n, int(g.integers(1, n + 1)))))
        M = g.standard_normal((n, n))
        if trial % 2:  # some W in S has W >= G iff the greatest element does
            if isinstance(S, (Singleton, ShiftedPSDCap)):
                G = (0.5 if trial % 4 == 1 else 3.0) * M @ M.T / max_eig(M @ M.T)
                got = S.dominates(G, DEFAULT_TOL)
                dominated.add(got)
                assert got == (min_eig(S.U - G) >= -DEFAULT_TOL.psd_abs)
            continue
        val = S.max_min_eig(N, DEFAULT_TOL)
        ref = _max_min_eig_closed_form(S, N)
        if ref is not None:
            assert val == ref
        for _ in range(10):
            R = 2.0 * g.standard_normal((n, n))
            V = project(S, R + R.T)
            assert val >= min_eig(N.T @ V @ N) - 1e-7
    assert dominated in ({True, False}, set())


def test_h_eval_and_conj():
    U = 0.5 * np.eye(2)
    h = Linear(U)
    V = np.diag([1.0, 3.0])
    assert h_eval(h, V) == pytest.approx(2.0)
    # conjugate of a linear functional is the indicator of its slope
    assert h_conj(h, U) == 0.0
    assert h_conj(h, np.zeros((2, 2))) == np.inf

    hi = Indicator(SpectralBox(0.0, 1.0, 2))
    assert h_eval(hi, 0.5 * np.eye(2)) == 0.0
    assert h_eval(hi, 2.0 * np.eye(2)) == np.inf
    # conjugate of the indicator is the support function
    W = np.diag([3.0, -1.0])
    assert h_conj(hi, W) == pytest.approx(3.0)

    hs = Support(SpectralBox(0.0, 1.0, 2))
    assert h_eval(hs, W) == pytest.approx(3.0)
    assert h_conj(hs, 0.5 * np.eye(2)) == 0.0


PAIR_HS = (
    [Linear(np.array([[2.0, -1.0], [-1.0, 0.5]]))]
    + [Indicator(S) for S in ALL_SETS + [Ray(np.diag([1.0, -1.0]))]]
    + [Support(S) for S in ALL_SETS + [Ray(np.diag([1.0, -1.0]))]]
)


@pytest.mark.parametrize("h", PAIR_HS, ids=lambda h: f"{h.kind}-{h.set.kind}")
def test_h_value_returns_a_subgradient_and_conj_a_maximizer(h):
    g = np.random.default_rng(11)
    tol = DEFAULT_TOL
    # points of dom h and of dom h*, by projecting random matrices
    dom = [h.dom.project(3.0 * rand_sym(2), tol) for _ in range(12)]
    conj_dom = [h.conj_dom.project(3.0 * g.standard_normal() * rand_sym(2), tol) for _ in range(12)]
    for V in dom:
        hv, G = h.value(V, tol)
        assert np.isfinite(hv)
        for V2 in dom:
            # h(V') >= h(V) + <G, V' - V>
            assert h.value(V2, tol)[0] >= hv + float(np.sum(G * (V2 - V))) - 1e-7 * (1.0 + np.linalg.norm(V2 - V))
    for W in conj_dom:
        c, V = h.conj(W, tol)
        assert np.isfinite(c)
        # h*(W) = <W, V> - h(V)
        assert float(np.sum(W * V)) - h.value(V, tol)[0] == pytest.approx(c, abs=1e-7 * (1.0 + abs(c)))


def test_linear_is_the_support_function_of_its_slope():
    U = np.array([[2.0, -1.0], [-1.0, 0.5]])
    h = Linear(U)
    assert isinstance(h, Support) and type(h.set) is Singleton
    assert np.array_equal(h.set.U, U) and h.set.U is h.U
    assert repr(h).startswith("Linear(U=")
    assert hspec_to_json(h) == {"kind": "linear", "U": U.tolist()}
    h2 = hspec_from_json(hspec_to_json(h))
    assert type(h2) is Linear and np.array_equal(h2.U, U) and np.array_equal(h2.set.U, U)


def test_equality_and_hash_never_raise():
    # variants holding arrays compare by identity; the spectral sets by value
    built = []
    for S in ALL_SETS:
        built.append((S, set_from_json(set_to_json(S))))
        for h in (Indicator, Support):
            built.append((h(S), hspec_from_json(hspec_to_json(h(S)))))
    U = np.diag([2.0, 1.0])
    built += [
        (Linear(U), Linear(U.copy())),
        (Halfspace(U), Halfspace(U.copy())),
        (ProblemData(np.zeros((1, 2)), np.zeros((1, 1))), ProblemData(np.zeros((1, 2)), np.zeros((1, 1)))),
        (FitSpec(np.eye(4), np.ones(4), 2, 2), FitSpec(np.eye(4), np.ones(4), 2, 2)),
        (
            InfProjProblem(ProblemData(np.zeros((1, 2)), np.zeros((1, 1))), Linear(U)),
            InfProjProblem(ProblemData(np.zeros((1, 2)), np.zeros((1, 1))), Linear(U)),
        ),
    ]
    for a, b in built:
        assert a == a and isinstance(a == b, bool) and hash(a) == hash(a), a
    assert Indicator(TraceBall(1.0, 2)) == Indicator(TraceBall(1.0, 2))


def test_set_json_roundtrip():
    for S in ALL_SETS:
        S2 = set_from_json(set_to_json(S))
        assert type(S2) is type(S)
        G = rand_sym(2)
        v1, _ = support(S, G)
        v2, _ = support(S2, G)
        assert v1 == pytest.approx(v2, abs=1e-12) or (v1 == v2)


def test_hspec_json_roundtrip():
    specs = [
        Linear(0.5 * np.eye(2)),
        Indicator(TraceBall(1.0, 2)),
        Support(Fantope(1, 2)),
    ]
    for h in specs:
        h2 = hspec_from_json(hspec_to_json(h))
        assert type(h2) is type(h)
        V = rand_sym(2)
        assert h_eval(h, V) == pytest.approx(h_eval(h2, V), abs=1e-12)


def test_bad_json_rejected():
    with pytest.raises((KeyError, ValueError)):
        set_from_json({"kind": "no-such-set"})
    with pytest.raises((KeyError, ValueError)):
        hspec_from_json({"kind": "no-such-h"})


def test_fantope_validation():
    with pytest.raises(ValueError):
        Fantope(0, 2)
    with pytest.raises(ValueError):
        Fantope(3, 2)


# ---------------------------------------------------------------------------
# spectral sets and the capped-simplex projection


def test_spectral_caps():
    """The spectral variants describe themselves as (lo, cap, total)."""
    triple = lambda S: (S.lo, S.cap, S.total)
    assert triple(SpectralBox(-0.5, 1.5, 2)) == (-0.5, 1.5, np.inf)
    assert triple(TraceBall(2.0, 3)) == (0.0, np.inf, 2.0)
    assert triple(Fantope(2, 3)) == (0.0, 1.0, 2.0)
    I2 = np.eye(2)
    for S in (Singleton(I2), Hull((I2,)), Ray(I2), ShiftedPSDCap(I2)):
        assert not isinstance(S, SpectralSet)


def _brute_force_projection(w, cap, total):
    """Nearest point of {0 <= x <= cap, sum x <= total}: try every split
    of the entries into zero / free / capped, with the budget slack or
    tight, and keep the nearest feasible candidate."""
    best, best_d = None, np.inf
    for states in itertools.product("0fc", repeat=w.size):
        states = np.array(states)
        if np.isinf(cap) and np.any(states == "c"):
            continue
        free = states == "f"
        capped = states == "c"
        taus = [0.0]
        if free.any():
            at_cap = capped.sum() * cap if capped.any() else 0.0
            taus.append((w[free].sum() + at_cap - total) / free.sum())
        for tau in taus:
            x = np.where(free, w - tau, 0.0)
            x = np.where(capped, cap, x)
            if np.any(x < -1e-12) or np.any(x > cap + 1e-12) or x.sum() > total + 1e-12:
                continue
            d = float(np.sum((x - w) ** 2))
            if d < best_d:
                best, best_d = x, d
    return best


def _kkt_residual(w, x, cap, total):
    """How far x is from the KKT conditions of the projection: some
    tau >= 0, zero unless the budget binds, with x_i = clip(w_i - tau, 0, cap)."""
    eps = 1e-12 * (1.0 + np.max(np.abs(w)))
    lo, hi = 0.0, np.inf
    free = (x > eps) & (x < cap - eps)
    lo = max([lo] + list(w[x <= eps]) + list(w[free] - x[free]))
    hi = min([hi] + list(w[x >= cap - eps] - cap) + list(w[free] - x[free]))
    if x.sum() < total - eps:
        hi = min(hi, 0.0)
    feas = max(0.0, -x.min(), x.max() - cap, x.sum() - total)
    return max(feas, lo - hi)


@pytest.mark.parametrize(
    "cap,total", [(1.0, 2.0), (1.0, 1.0), (np.inf, 1.5), (np.inf, 0.0), (0.5, 10.0)]
)
def test_capped_simplex_projection_is_exact(cap, total):
    g = np.random.default_rng(7)
    for trial in range(60):
        n = int(g.integers(1, 6))
        if trial % 2:
            # ties: entries drawn from a few values, some on the breakpoints
            w = g.choice([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0], size=n)
        else:
            w = g.normal(0.5, 1.5, size=n)
        x = _project_capped_simplex(w, cap, total)
        assert _kkt_residual(w, x, cap, total) <= 1e-12
        ref = _brute_force_projection(w, cap, total)
        assert np.allclose(x, ref, atol=1e-12, rtol=0.0)


def test_fantope_projection_hits_the_trace_budget():
    # clip(w, 0, 1) sums to 3 > 2; tau = 0.8 gives (1, 0.6, 0.4, 0)
    V = np.diag([3.0, 1.4, 1.2, -1.0])
    P = project(Fantope(2, 4), V)
    assert np.trace(P) == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(P, np.diag([1.0, 0.6, 0.4, 0.0]), atol=1e-14)


@pytest.mark.parametrize(
    "make",
    [
        lambda M: Linear(M),
        lambda M: Singleton(M),
        lambda M: Hull([np.eye(2), M]),
        lambda M: Ray(M),
        lambda M: ShiftedPSDCap(M),
        lambda M: TraceBall(float(M[0, 0]), 2),
    ],
    ids=["linear", "singleton", "hull", "ray", "psd_cap", "trace_ball"],
)
def test_non_finite_data_is_rejected(make):
    # each of these used to accept a NaN entry; linear h then read p = 0
    with pytest.raises(ValueError):
        make(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _rotation(n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q


def test_ray_dominates_needs_a_psd_direction_whose_range_holds_g():
    tol = DEFAULT_TOL
    Q = _rotation(3, 1)
    D = Q @ np.diag([2.0, 0.5, 0.0]) @ Q.T  # singular and PSD
    on = Q @ np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.0]]) @ Q.T
    off = Q @ np.diag([1.0, 0.0, 1e-3]) @ Q.T
    assert Ray(D).dominates(on, tol)  # alpha D >= G for alpha large
    assert not Ray(D).dominates(off, tol)  # G reaches ker D
    assert Ray(D).dominates(np.zeros((3, 3)), tol)  # alpha = 0
    # D not PSD: alpha D >= G >= 0 only at alpha = 0, G = 0
    indefinite = Q @ np.diag([2.0, 0.5, -1.0]) @ Q.T
    assert not Ray(indefinite).dominates(on, tol)
    assert Ray(indefinite).dominates(np.zeros((3, 3)), tol)
    # the zero ray {0} dominates G = 0 only
    assert not Ray(np.zeros((3, 3))).dominates(on, tol)


def test_psd_cap_gauge_of_a_singular_cap():
    import scipy.linalg

    Q = _rotation(3, 2)
    U = Q @ np.diag([2.0, 0.5, 0.0]) @ Q.T
    block = np.array([[1.0, 0.4], [0.4, 0.3]])
    G = Q[:, :2] @ block @ Q[:, :2].T  # PSD, on rge U
    t = gauge(ShiftedPSDCap(U), G)
    # the least t with t U >= G: the top generalized eigenvalue on rge U
    ref = scipy.linalg.eigh(block, np.diag([2.0, 0.5]), eigvals_only=True)[-1]
    assert t == pytest.approx(ref, rel=1e-12)
    assert min_eig(t * U - G) >= -1e-12
    assert gauge(ShiftedPSDCap(U), G + 1e-3 * np.outer(Q[:, 2], Q[:, 2])) == np.inf  # off rge U
    assert gauge(ShiftedPSDCap(U), -G) == np.inf  # not PSD


def test_psd_cap_gauge_reads_rge_u_with_one_cutoff():
    # lambda = 1e-12 <= rank_rel * lambda_max is off rge U for the range
    # test, and so it is not inverted either: G's 1e-9 along it lies
    # within feas_abs of rge U, and the gauge is that of U's live block
    U = np.diag([1.0, 1e-12])
    assert gauge(ShiftedPSDCap(U), np.diag([1.0, 1e-9])) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "S, C",
    [
        (SpectralBox(-1.0, 2.0, 3), np.diag([0.5, -0.5, 1.0])),
        (TraceBall(3.0, 3), np.diag([0.5, 0.2, 1.0])),
        (Fantope(2, 3), np.diag([0.5, 0.2, 0.6])),
    ],
    ids=["box", "trace_ball", "fantope"],
)
def test_spectral_interior_member_factors_c_once(S, C, linalg_inputs):
    Q = _rotation(3, 3)
    assert S.interior_member(Q @ C @ Q.T, DEFAULT_TOL) == (True, True)
    assert linalg_inputs.repeats() == []


def test_ray_dominates_and_psd_cap_gauge_factor_once(linalg_inputs):
    Q = _rotation(3, 4)
    D = Q @ np.diag([2.0, 0.5, 0.0]) @ Q.T
    G = Q @ np.diag([1.0, 0.5, 0.0]) @ Q.T
    S, cap = Ray(D), ShiftedPSDCap(D)
    linalg_inputs.clear()
    assert S.dominates(G, DEFAULT_TOL)
    assert linalg_inputs.repeats() == []
    linalg_inputs.clear()
    assert cap.gauge(G, DEFAULT_TOL) == pytest.approx(1.0, rel=1e-12)
    assert linalg_inputs.repeats() == []


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: SpectralBox(np.nan, 1.0, 2), "finite"),
        (lambda: SpectralBox(1.0, 0.0, 2), "lo <= hi"),
        (lambda: SpectralBox(0.0, 1.0, 2.5), "positive integer"),
        (lambda: TraceBall(1.0, -2), "positive integer"),
        (lambda: Fantope(1, 0), "positive integer"),
        (lambda: Fantope(1.5, 3), "integer k"),
        (lambda: Hull(()), "at least one point"),
        (lambda: Hull((np.eye(2), np.eye(3))), "one shape"),
        (lambda: ShiftedPSDCap(np.diag([1.0, -1.0])), "positive semidefinite"),
        (lambda: gauge(Hull((np.eye(2), 2.0 * np.eye(2))), np.eye(2)), "0 in S"),
    ],
    ids=["box-nan", "box-order", "box-n", "ball-n", "fantope-n", "fantope-k", "hull-empty", "hull-shapes", "cap-U", "gauge-0"],
)
def test_sets_refuse_bad_data(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_spectral_sets_take_numpy_integers():
    n, k = np.int64(3), np.int32(2)
    for S in (SpectralBox(0.0, 1.0, n), TraceBall(1.0, n), Fantope(k, n)):
        assert S.n == 3 and S.member(np.zeros((3, 3)), DEFAULT_TOL)
        assert set_from_json(json.loads(json.dumps(set_to_json(S)))).n == 3
