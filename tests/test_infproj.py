import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfkit.gmf import ProblemData, eval_gmf, eval_gmf_oracle
from gmfkit.hset import (
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
from gmfkit.infproj import (
    InfProjProblem,
    _descent,
    _objective,
    _start_candidates,
    _water_fill,
    cq_report,
    dom_p_member,
    dual_gap,
    dual_value,
    eval_p,
    eval_p_conj,
    subdiff_p_witness,
    xi_member,
)
from gmfkit.hset import h_eval, project, support
from gmfkit.numlin import DEFAULT_TOL, Tolerances, sv
from gmfkit.selftest import _rand_set, criterion_13_problems

rng = np.random.default_rng(3)


def unconstrained(n, m):
    return ProblemData(np.zeros((1, n)), np.zeros((1, m)))


def test_nuclear_norm_identity():
    pd = unconstrained(3, 2)
    prob = InfProjProblem(pd, Linear(0.5 * np.eye(3)))
    for _ in range(5):
        X = rng.standard_normal((3, 2))
        pe = eval_p(prob, X)
        assert pe.status == "finite"
        assert pe.value == pytest.approx(np.sum(sv(X)), rel=1e-7, abs=1e-7)


def test_weighted_nuclear_norm():
    M = rng.standard_normal((3, 3))
    L = M @ M.T + 0.5 * np.eye(3)
    prob = InfProjProblem(unconstrained(3, 2), Linear(0.5 * L @ L.T))
    X = rng.standard_normal((3, 2))
    pe = eval_p(prob, X)
    assert pe.value == pytest.approx(np.sum(sv(L.T @ X)), rel=1e-7)


def test_minimizer_feasibility():
    prob = InfProjProblem(unconstrained(2, 2), Linear(0.5 * np.eye(2)))
    X = rng.standard_normal((2, 2))
    pe = eval_p(prob, X)
    # the attained objective at the reported V should match the value
    v_attained = eval_gmf(prob.pd, X, pe.V).value + np.sum(0.5 * np.eye(2) * pe.V)
    assert v_attained == pytest.approx(pe.value, rel=1e-6, abs=1e-6)


def test_improper_case_certificate():
    pd = ProblemData(np.zeros((1, 1)), np.zeros((1, 1)))
    prob = InfProjProblem(pd, Linear(np.array([[-1.0]])))
    pe = eval_p(prob, [[1.0]])
    assert pe.status == "unbounded"
    D = pe.unbounded_direction
    assert D is not None and D[0, 0] > 0


def test_indicator_singleton_reduces_to_gmf():
    V0 = np.diag([1.0, 2.0])
    prob = InfProjProblem(unconstrained(2, 1), Indicator(Singleton(V0)))
    X = np.array([[1.0], [1.0]])
    pe = eval_p(prob, X)
    want = eval_gmf(prob.pd, X, V0).value
    assert pe.value == pytest.approx(want, rel=1e-9)


def test_infeasible_indicator():
    # singleton set with a negative definite slope: no feasible V
    prob = InfProjProblem(unconstrained(2, 1), Indicator(Singleton(-np.eye(2))))
    pe = eval_p(prob, np.array([[1.0], [0.0]]))
    assert pe.status == "infeasible"
    assert pe.value == np.inf


_E2 = np.array([[0.0, 1.0]])


@pytest.mark.parametrize(
    "A, B, h",
    [
        (np.zeros((1, 2)), 0.0, Indicator(Singleton(np.eye(2)))),
        (_E2, 0.0, Indicator(Singleton(np.eye(2)))),
        (np.zeros((1, 2)), 0.0, Indicator(SpectralBox(0.0, 1.0, 2))),
        (np.zeros((1, 2)), 0.0, Indicator(TraceBall(1.0, 2))),
        (np.zeros((1, 2)), 0.0, Indicator(Fantope(1, 2))),
        (np.zeros((1, 2)), 0.0, Support(TraceBall(1.0, 2))),
        (_E2, 1.0, Indicator(Ray(np.array([[1.0, 1.0], [1.0, 0.0]])))),
    ],
    ids=["A=0", "A=e2", "box", "trace_ball", "fantope", "support_trace_ball", "ray_alpha"],
)
def test_an_overflowing_phi_is_not_reported_infeasible(A, B, h):
    # V = I is feasible and p(X) = x1^2 / 2, which overflows; so does
    # sqrt(2) x1^2 inside the support's value, where the spectral path
    # reported "finite" with value inf (nan).  On the ray N^T D N = 1,
    # gamma = 1/2 and beta = x1^2 / 2, so alpha* = sqrt(beta / gamma) overflows
    prob = InfProjProblem(ProblemData(A, np.array([[B]])), h)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflows"):
        eval_p(prob, np.array([[1e200], [0.0]]))
    assert eval_p(prob, np.array([[1.0], [0.0]])).status == "finite"


def test_support_of_a_fantope_raises_where_the_squared_singular_value_overflows():
    # s_1^2 = inf met the water-fill's Python min() as a NaN, which min
    # drops, and the value came out a wrong finite number of order 1e200
    prob = InfProjProblem(unconstrained(3, 2), Support(Fantope(1, 3)))
    X = 1e200 * np.random.default_rng(1).standard_normal((3, 2))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflows"):
        eval_p(prob, X)


_SVALS = st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(1e-3, 10.0)), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    s=_SVALS,
    cap=st.one_of(st.just(math.inf), st.floats(0.1, 5.0)),
    total=st.one_of(st.just(math.inf), st.floats(0.1, 20.0)),
)
def test_water_fill_meets_its_kkt_conditions(s, cap, total):
    # lam minimizes sum s_i^2 / (2 lam_i) over 0 <= lam <= cap, sum lam <= total
    # iff it is feasible and lam_i = min(cap, s_i t) for s_i > 0, with t = inf
    # (every such lam_i at the cap) unless the budget binds; a lam_i with
    # s_i = 0 is free, and is the cap without a budget and 0 with one
    if math.isinf(cap) and math.isinf(total):
        return  # no spectral set has neither a cap nor a budget
    s = sorted(s, reverse=True)
    lam = _water_fill(s, cap, total)
    assert len(lam) == len(s)
    assert all(li == (cap if math.isinf(total) else 0.0) for x, li in zip(s, lam) if x == 0.0)
    assert all(0.0 <= li <= cap for li in lam)
    used = sum(lam)
    assert used <= total * (1.0 + 1e-12)
    live = [(x, li) for x, li in zip(s, lam) if x > 0.0]
    if used < total * (1.0 - 1e-12):
        assert all(li == cap for _, li in live)
    else:
        t = max(li / x for x, li in live)
        assert all(li == pytest.approx(min(cap, x * t), rel=1e-12) for x, li in live)


def test_dom_p_member_examples():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    B = np.array([[1.0], [1.0]])
    S = Hull((np.zeros((2, 2)), np.array([[2.0, 1.0], [1.0, 0.0]])))
    prob = InfProjProblem(ProblemData(A, B), Indicator(S))
    assert dom_p_member(prob, np.array([[0.5], [0.0]]))[0]
    assert not dom_p_member(prob, np.array([[1.5], [0.0]]))[0]


def test_eval_p_conj_linear():
    # p* is the indicator of the lifted constraint set
    prob = InfProjProblem(unconstrained(2, 1), Linear(0.5 * np.eye(2)))
    inside = np.array([[0.9], [0.0]])   # YY^T/2 below the slope
    outside = np.array([[2.0], [0.0]])
    v_in, s_in = eval_p_conj(prob, inside)
    v_out, s_out = eval_p_conj(prob, outside)
    assert (s_in, s_out) == ("exact", "exact")
    assert v_in == 0.0 and v_out == np.inf


def test_eval_p_conj_indicator_support_form():
    S = SpectralBox(0.0, 1.0, 2)
    prob = InfProjProblem(unconstrained(2, 2), Indicator(S))
    Y = rng.standard_normal((2, 2))
    val, status = eval_p_conj(prob, Y)
    assert status == "exact"
    # sigma over the box is the trace against the PSD part of YY^T
    want = 0.5 * float(np.sum(np.clip(np.linalg.eigvalsh(Y @ Y.T), 0, None)))
    assert val == pytest.approx(want, rel=1e-9)


def test_eval_p_conj_decides_where_no_psd_vertex_attains_the_hull_support():
    # hull{diag(2, -1), diag(0, 1), diag(-1, -1)} at A = 0 and Y = (sqrt 2, 0):
    # the best PSD vertex gave (0.0, "exact"), but diag(1, 0) is in S cap
    # PSD and gives p*(Y) = <diag(1, 0), YY^T>/2 = 1
    S = Hull((np.diag([2.0, -1.0]), np.diag([0.0, 1.0]), np.diag([-1.0, -1.0])))
    prob = InfProjProblem(unconstrained(2, 1), Indicator(S))
    val, status = eval_p_conj(prob, np.array([[np.sqrt(2.0)], [0.0]]))
    assert status == "exact" and val == pytest.approx(1.0, abs=1e-12)
    assert eval_p_conj(prob, np.array([[0.0], [1.0]])) == (0.5, "exact")


def test_conjugate_path_takes_one_support_for_indicator_h(monkeypatch):
    # sigma_S(C0) was computed once for h*(C0) and again for its maximizer V
    calls = []
    real = TraceBall.support
    monkeypatch.setattr(TraceBall, "support", lambda S, G, tol: calls.append(G) or real(S, G, tol))
    prob = InfProjProblem(ProblemData(np.eye(2), np.array([[1.0], [0.5]])), Indicator(TraceBall(1.0, 2)))
    pe = eval_p(prob, np.array([[1.0], [2.0]]))
    assert pe.path == "conjugate" and np.isfinite(pe.value)
    assert len(calls) == 1


def test_the_descent_takes_each_support_once_per_accepted_V(monkeypatch):
    # the objective took sigma_S(V) and a second support call took its
    # maximizer for the subgradient: 257 calls; the starts were filtered
    # on a support call of their own, which the objective repeated: 220
    calls = []
    real = Hull.support
    monkeypatch.setattr(Hull, "support", lambda S, G, tol: calls.append(G) or real(S, G, tol))
    S = Hull((np.eye(2), np.diag([2.0, -0.5]), np.array([[0.5, 0.3], [0.3, 1.0]])))
    pe = eval_p(InfProjProblem(unconstrained(2, 1), Support(S)), np.array([[1.0], [2.0]]))
    # sigma_S runs once per V at which phi is finite: 80 starts, 14
    # rejected trial points and one accepted V per iteration
    assert len(calls) - pe.iters == 94
    assert (pe.path, pe.iters) == ("descent", 35)
    assert pe.value == pytest.approx(3.3786163820347817, rel=1e-12)


def test_dual_gap_zero_nuclear():
    prob = InfProjProblem(unconstrained(3, 2), Linear(0.5 * np.eye(3)))
    X = rng.standard_normal((3, 2))
    p, d, gap, status = dual_gap(prob, X)
    assert status != "undecided"
    assert abs(gap) <= 1e-6 * (1.0 + abs(p))


def test_dual_value_indicator():
    prob = InfProjProblem(unconstrained(2, 1), Indicator(SpectralBox(0.0, 1.0, 2)))
    X = np.array([[1.0], [2.0]])
    p = eval_p(prob, X).value
    d, Y, status = dual_value(prob, X)
    assert status != "undecided"
    assert d == pytest.approx(p, rel=1e-5, abs=1e-5)


def test_subdiff_witness_fenchel_young():
    prob = InfProjProblem(unconstrained(2, 2), Indicator(TraceBall(1.0, 2)))
    X = rng.standard_normal((2, 2))
    Y, gap, status = subdiff_p_witness(prob, X)
    assert status == "exact"
    assert abs(gap) <= 1e-6


def test_xi_member():
    prob = InfProjProblem(unconstrained(2, 1), Support(SpectralBox(0.0, 1.0, 2)))
    ans, status = xi_member(prob, np.array([[0.5], [0.0]]))
    assert status == "exact"
    assert ans


def test_ray_support_admits_the_zero_multiple():
    # W = 0 is in pos{D} and dominates YY^T/2 = 0 at Y = 0, so p*(0) = 0
    prob = InfProjProblem(unconstrained(2, 1), Support(Ray(np.diag([1.0, -1.0]))))
    Y = np.zeros((2, 1))
    assert xi_member(prob, Y) == (True, "exact")
    assert eval_p_conj(prob, Y) == (0.0, "exact")
    assert cq_report(prob).sccq == "holds"


def test_cq_report_linear_pd_slope():
    prob = InfProjProblem(unconstrained(2, 2), Linear(0.5 * np.eye(2)))
    rep = cq_report(prob)
    assert rep.ccq == "holds"
    assert rep.pcq == "holds"
    assert rep.bpcq == "fails"  # dom h is all of S^n, the cone is unbounded


def test_cq_report_bpcq_example():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[1.0], [0.0]])
    S = Hull((np.zeros((2, 2)), np.diag([1.0, 0.0])))
    prob = InfProjProblem(ProblemData(A, B), Indicator(S))
    rep = cq_report(prob)
    assert rep.ccq == "fails"
    assert rep.bpcq == "holds"


def test_cq_chain_never_violated_small():
    order = {"fails": 0, "holds": 1}
    g = np.random.default_rng(5)
    for _ in range(60):
        n = int(g.integers(1, 4))
        m = int(g.integers(1, 3))
        if g.random() < 0.5:
            pd = ProblemData(np.zeros((1, n)), np.zeros((1, m)))
        else:
            A = g.standard_normal((1, n))
            pd = ProblemData(A, A @ g.standard_normal((n, m)))
        S = [SpectralBox(0.0, 1.0, n), TraceBall(1.0, n), Fantope(1, n)][
            int(g.integers(3))
        ]
        prob = InfProjProblem(pd, Indicator(S))
        rep = cq_report(prob)
        chain = [rep.bpcq, rep.spcq, rep.pcq]
        for a, b in zip(chain, chain[1:]):
            if a in order and b in order:
                assert order[a] <= order[b]


# ---------------------------------------------------------------------------
# evaluation paths


def _orthogonal(g, n):
    Q, R = np.linalg.qr(g.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _with_svals(g, n, m, s):
    k = min(n, m)
    return (_orthogonal(g, n)[:, :k] * np.asarray(s)[:k]) @ _orthogonal(g, m)[:, :k].T


def test_paths_are_reported():
    X = rng.standard_normal((3, 2))
    pd = unconstrained(3, 2)
    cases = [
        (Indicator(Fantope(2, 3)), "spectral"),
        (Linear(0.5 * np.eye(3)), "weighted_nuclear"),
        (Indicator(Singleton(np.eye(3))), "loewner"),
        (Indicator(Hull((np.eye(3),))), "descent"),
        (Support(Singleton(0.5 * np.eye(3))), "weighted_nuclear"),
    ]
    for h, path in cases:
        pe = eval_p(InfProjProblem(pd, h), X)
        assert (pe.path, pe.status) == (path, "finite")
        if path != "descent":
            assert pe.iters == 0
    A = np.array([[1.0, 0.0, 0.0]])
    pd_A = ProblemData(A, np.zeros((1, 2)))
    constrained = InfProjProblem(pd_A, Indicator(Fantope(2, 3)))
    assert eval_p(constrained, X).path == "descent"
    pe = eval_p(InfProjProblem(pd_A, Linear(np.eye(3))), X)
    assert (pe.path, pe.status, pe.iters) == ("recession", "unbounded", 0)


def test_spectral_closed_forms():
    X = rng.standard_normal((3, 2))
    s = sv(X)
    pd = unconstrained(3, 2)
    box = eval_p(InfProjProblem(pd, Indicator(SpectralBox(0.0, 1.0, 3))), X).value
    ball = eval_p(InfProjProblem(pd, Indicator(TraceBall(2.0, 3))), X).value
    assert box == pytest.approx(0.5 * np.sum(s**2), rel=1e-14)
    assert ball == pytest.approx(np.sum(s) ** 2 / 4.0, rel=1e-14)
    # sigma_S: sqrt(2 hi) |X|_* for a box, sqrt(2 r) |X|_F for a trace ball,
    # and the Fantope with k = 1, whose cap never binds, as the unit ball
    for S, want in [
        (SpectralBox(-0.5, 2.0, 3), 2.0 * np.sum(s)),
        (TraceBall(2.0, 3), 2.0 * np.linalg.norm(s)),
        (Fantope(1, 3), np.sqrt(2.0) * np.linalg.norm(s)),
    ]:
        pe = eval_p(InfProjProblem(pd, Support(S)), X)
        assert (pe.path, pe.value) == ("spectral", pytest.approx(want, rel=1e-14))


def test_spectral_infeasible_cases():
    X = np.array([[1.0], [0.0]])
    pd = unconstrained(2, 1)
    for S in (SpectralBox(-1.0, 0.0, 2), SpectralBox(-2.0, -1.0, 2), TraceBall(0.0, 2)):
        pe = eval_p(InfProjProblem(pd, Indicator(S)), X)
        assert (pe.status, pe.value, pe.path) == ("infeasible", np.inf, "spectral")
    # X = 0 lies in the range of V = 0, except when S misses the PSD cone
    zero = np.zeros((2, 1))
    assert eval_p(InfProjProblem(pd, Indicator(TraceBall(0.0, 2))), zero).value == 0.0
    empty = eval_p(InfProjProblem(pd, Indicator(SpectralBox(-2.0, -1.0, 2))), zero)
    assert empty.status == "infeasible"
    # sigma_S of that box falls without bound along V = tI: sigma_S(tI) = -2t
    pe = eval_p(InfProjProblem(pd, Support(SpectralBox(-2.0, -1.0, 2))), X)
    assert (pe.status, pe.path) == ("unbounded", "recession")
    assert pe.unbounded_direction == pytest.approx(np.eye(2) / np.sqrt(2.0))


def test_spectral_path_rejects_wrong_shape():
    prob = InfProjProblem(unconstrained(2, 2), Indicator(TraceBall(1.0, 2)))
    with pytest.raises(ValueError):
        eval_p(prob, np.ones((2, 3)))


@st.composite
def spectral_instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["box_lo_neg", "box_lo_pos", "ball", "fantope"]))
    if kind == "box_lo_neg":
        lo = draw(st.sampled_from([-1.0, -0.25]))
        S = SpectralBox(lo, draw(st.sampled_from([0.0, 0.5, 2.0])), n)
    elif kind == "box_lo_pos":
        hi = draw(st.sampled_from([0.5, 2.0]))
        S = SpectralBox(draw(st.sampled_from([0.1, 0.5])) * hi, hi, n)
    elif kind == "ball":
        S = TraceBall(draw(st.sampled_from([0.0, 0.5, 2.0])), n)
    else:
        S = Fantope(draw(st.integers(1, n)), n)
    svals = draw(
        st.lists(st.sampled_from([0.0, 0.3, 1.0, 1.0, 2.5]), min_size=3, max_size=3)
    )
    s = sorted(svals, reverse=True)
    X = _with_svals(np.random.default_rng(draw(st.integers(0, 2**31 - 1))), n, m, s)
    return InfProjProblem(unconstrained(n, m), Indicator(S)), X


@settings(max_examples=80, deadline=None)
@given(spectral_instances())
def test_spectral_path_matches_descent(inst):
    prob, X = inst
    closed = eval_p(prob, X)
    ref = _descent(prob, X, 4000, 0)
    assert closed.path == "spectral" and closed.iters == 0
    assert closed.status == ref.status
    if closed.status != "finite":
        assert closed.value == ref.value == np.inf
        return
    scale = 1.0 + abs(ref.value)
    # the closed form is the infimum; the descent stops at a feasible V
    assert closed.value <= ref.value + 1e-12 * scale
    assert ref.value - closed.value <= 1e-8 * scale
    pstar, status = eval_p_conj(prob, closed.Y)
    assert status == "exact"
    gap = closed.value + pstar - float(np.sum(X * closed.Y))
    assert abs(gap) <= 1e-8
    attained = eval_gmf(prob.pd, X, closed.V).value
    assert attained == pytest.approx(closed.value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", [35, 46, 216])
def test_weighted_nuclear_rank_deficient_X(seed):
    # rank-2 X with a PD slope: V* is singular, and phi at V* used to
    # fail its range test and fall into a descent 10-60% off
    g = np.random.default_rng(seed)
    n, m = 6, 3
    Q, _ = np.linalg.qr(g.standard_normal((n, n)))
    L = Q * g.uniform(0.5, 1.5, n)
    X = g.standard_normal((n, 2)) @ g.standard_normal((2, m))
    prob = InfProjProblem(unconstrained(n, m), Linear(0.5 * L @ L.T))
    pe = eval_p(prob, X)
    assert (pe.status, pe.path, pe.iters) == ("finite", "weighted_nuclear", 0)
    assert pe.value == pytest.approx(np.sum(sv(L.T @ X)), rel=1e-12)
    pstar, status = eval_p_conj(prob, pe.Y)
    assert (pstar, status) == (0.0, "exact")
    assert float(np.sum(X * pe.Y)) == pytest.approx(pe.value, rel=1e-12)


@pytest.mark.parametrize("S", [TraceBall(1.0, 3), Fantope(1, 3)], ids=repr)
def test_dual_value_closes_the_gap_on_spectral_sets(S):
    # the ascent used to stall at d = 0.70758 against p = 0.74103 here
    prob = InfProjProblem(unconstrained(3, 2), Indicator(S))
    X = np.random.default_rng(0).standard_normal((3, 2))
    p, d, gap, status = dual_gap(prob, X)
    assert status == "numeric"
    assert abs(gap) <= 1e-8
    assert d <= p + 1e-12


def test_start_candidates_depend_on_the_seed():
    prob = InfProjProblem(unconstrained(3, 1), Linear(np.eye(3)))
    a = _start_candidates(prob, np.random.default_rng(0))
    b = _start_candidates(prob, np.random.default_rng(5))
    again = _start_candidates(prob, np.random.default_rng(0))
    assert len(a) == len(b) == len(again)
    assert all(np.array_equal(u, v) for u, v in zip(a, again))
    assert not all(np.array_equal(u, v) for u, v in zip(a, b))


def _psd_cap_problems(count=47):
    """A = 0 problems with h = Indicator(ShiftedPSDCap) drawn by selftest's
    set sampler."""
    g = np.random.default_rng(2024)
    out = []
    while len(out) < count:
        n, m = int(g.integers(1, 5)), int(g.integers(1, 4))
        S = _rand_set(g, n)
        if isinstance(S, ShiftedPSDCap):
            out.append((InfProjProblem(unconstrained(n, m), Indicator(S)), g.standard_normal((n, m))))
    return out


def test_p_is_nonnegative_on_psd_caps():
    # with A = 0, p >= 0; the descent used to project its zero start into
    # the cap, land on V ~ +-1e-15 I and invert it, reporting -9e14 "finite"
    for prob, X in _psd_cap_problems():
        for pe in (eval_p(prob, X), _descent(prob, X, 4000, 0)):
            assert pe.value >= 0.0


def _loewner_problems():
    """(problem, X) for sets with a greatest element, half with A != 0."""
    g = np.random.default_rng(11)
    out = []
    while len(out) < 16:
        n, m = int(g.integers(2, 5)), int(g.integers(1, 4))
        S = _rand_set(g, n)
        if S.loewner_max() is None:
            continue
        if len(out) % 2:  # ker A != {0}
            A = g.standard_normal((int(g.integers(1, n)), n))
            pd = ProblemData(A, A @ g.standard_normal((n, m)))
        else:
            pd = unconstrained(n, m)
        out.append((InfProjProblem(pd, Indicator(S)), g.standard_normal((n, m))))
    # +inf: X off the range of the singular U, hi < 0, U indefinite on ker A
    e2 = np.array([[0.0], [1.0]])
    out += [
        (InfProjProblem(unconstrained(2, 1), Indicator(Singleton(np.diag([1.0, 0.0])))), e2),
        (InfProjProblem(unconstrained(2, 1), Indicator(ShiftedPSDCap(np.diag([1.0, 0.0])))), e2),
        (InfProjProblem(unconstrained(2, 1), Indicator(SpectralBox(-1.0, -0.5, 2))), e2),
        (
            InfProjProblem(
                ProblemData(np.array([[1.0, 0.0]]), np.zeros((1, 1))),
                Indicator(Singleton(np.diag([1.0, -1.0]))),
            ),
            e2,
        ),
    ]
    return out


@pytest.mark.parametrize("case", range(20))
def test_loewner_path_matches_descent(case):
    prob, X = _loewner_problems()[case]
    closed = eval_p(prob, X)
    ref = _descent(prob, X, 4000, 0)
    spectral = isinstance(prob.h.set, SpectralBox) and not np.any(prob.pd.A)
    assert closed.path == ("spectral" if spectral else "loewner") and closed.iters == 0
    assert closed.status == ref.status
    if closed.status != "finite":
        assert closed.value == ref.value == np.inf
        assert dom_p_member(prob, X) == (False, None, "exhaustive")
        return
    scale = 1.0 + abs(ref.value)
    assert closed.value <= ref.value + 1e-12 * scale
    assert ref.value - closed.value <= 1e-8 * scale
    found, V, status = dom_p_member(prob, X)
    assert found and status == "witness"


@pytest.mark.parametrize("D,ccq", [(np.diag([1.0, -0.01]), "holds"), (np.diag([1.0, 2.0]), "fails")])
def test_ccq_of_ray_support_without_constraint(D, ccq):
    # none of the probes I - tD, t in {0, 0.1, 1, 10}, is positive definite
    # with <D, V> <= 0, so both used to be undecided
    rep = cq_report(InfProjProblem(unconstrained(2, 1), Support(Ray(D))))
    assert rep.ccq == ccq
    if ccq == "holds":
        # certificate: V = eps*I + q q^T for the eigenvector q of lambda_min(D)
        lam, Q = np.linalg.eigh(D)
        q = Q[:, :1]
        V = 1e-3 * np.eye(2) + (1e-3 * np.trace(D) / -lam[0] + 1.0) * q @ q.T
        assert np.min(np.linalg.eigvalsh(V)) > 0.0 and np.sum(D * V) < 0.0
    else:
        assert rep.sccq == "fails"


def test_linear_dual_value_factorizes_once(linalg_calls):
    # the first call factors U and the problem keeps it; each later X
    # costs one SVD
    g = np.random.default_rng(4)
    n, m = 5, 3
    L = np.linalg.qr(g.standard_normal((n, n)))[0] * g.uniform(0.5, 1.5, n)
    pd, h = unconstrained(n, m), Linear(0.5 * L @ L.T)
    linalg_calls.clear()
    prob = InfProjProblem(pd, h)
    assert linalg_calls == {}
    for i in range(3):
        X = g.standard_normal((n, m))
        linalg_calls.clear()
        value, Y, status = dual_value(prob, X)
        assert linalg_calls == ({"eigh": 1, "svd": 1} if i == 0 else {"svd": 1})
        assert status == "exact"
        assert value == pytest.approx(np.sum(sv(L.T @ X)), rel=1e-12)
        assert float(np.sum(X * Y)) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize(
    "make, pcq",
    [
        (lambda M: Linear(M @ M.T + np.eye(3)), "holds"),
        (lambda M: Linear(M[:, :2] @ M[:, :2].T), "fails"),  # U singular
        (lambda M: Support(SpectralBox(-1.0, 2.0, 3)), "holds"),
        (lambda M: Support(ShiftedPSDCap(M @ M.T)), "holds"),
    ],
    ids=["linear", "linear_singular", "support_box", "support_psd_cap"],
)
def test_cq_report_at_a_zero_reads_the_slope_s_spectrum(make, pcq, linalg_inputs):
    # _linear_factors takes eigh(U) of the slope U, the greatest element of
    # dom h*; PCQ/SPCQ read lambda_min(U) from it instead of a second eigvalsh
    M = np.random.default_rng(5).standard_normal((3, 3))
    prob = InfProjProblem(unconstrained(3, 2), make(M))
    linalg_inputs.clear()
    rep = cq_report(prob)
    assert linalg_inputs.repeats() == []
    assert rep.pcq == rep.spcq == pcq


def test_support_of_a_singleton_is_its_linear_h():
    U = np.array([[2.0, 1.0], [1.0, 3.0]])
    prob = InfProjProblem(unconstrained(2, 1), Support(Singleton(U)))
    assert isinstance(prob.h, Linear) and np.array_equal(prob.h.U, U)


def _objective_along(prob, X, D, steps):
    """phi(X, I + sD) + h(I + sD) for each s."""
    out = []
    for s in steps:
        V = np.eye(prob.pd.n) + s * D
        out.append(eval_gmf(prob.pd, X, V).value + float(np.sum(prob.h.U * V)))
    return out


def _linear_problems_with_a_kernel_constraint(count=40):
    """Linear h with A != 0, drawn as criterion 13 draws them."""
    g = np.random.default_rng(2024)
    out = []
    for _ in range(count):
        n, m = int(g.integers(1, 5)), int(g.integers(1, 4))
        A = g.standard_normal((int(g.integers(1, 3)), n))
        M = g.standard_normal((n, n))
        U = M @ M.T if g.random() < 0.7 else 0.5 * (M + M.T)
        pd = ProblemData(A, A @ g.standard_normal((n, m)))
        out.append((InfProjProblem(pd, Linear(U)), g.standard_normal((n, m))))
    return out


def test_linear_h_with_an_equality_constraint_is_unbounded():
    # with A = [1, 0] and U = I, V = diag(t, 1) keeps phi(X, V) fixed while
    # <U, V> -> -inf as t -> -inf; the descent used to report -0.372
    # "finite" (and -35738 with B = 0).  With U = [[0, 1], [1, 0]] and
    # B = 0 the QQ block of U vanishes and V = [[1, t], [t, 1]] gives
    # x2^2 / 2 + 2t; with B = 1 and U = [[1/2, 1], [1, 0]] the off-diagonal
    # block moves N^T V Y0 too, and V = [[1, -2t], [-2t, 1 + t]] gives
    # (x2 + 2t)^2 / (2 + 2t) - 4t
    A, X = np.array([[1.0, 0.0]]), np.array([[0.0], [1.0]])
    hands = [
        ([[1.0]], np.eye(2)),
        ([[0.0]], np.eye(2)),
        ([[0.0]], np.array([[0.0, 1.0], [1.0, 0.0]])),
        ([[1.0]], np.array([[0.5, 1.0], [1.0, 0.0]])),
    ]
    cases = [(InfProjProblem(ProblemData(A, B), Linear(U)), X) for B, U in hands]
    for prob, X in cases + _linear_problems_with_a_kernel_constraint():
        pe = eval_p(prob, X)
        assert (pe.status, pe.path, pe.iters, pe.V) == ("unbounded", "recession", 0, None)
        # certificate: the objective falls strictly along V = I + sD
        vals = _objective_along(prob, X, pe.unbounded_direction, (0.0, 1.0, 10.0, 1e2, 1e4))
        assert np.isfinite(vals[0])
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_recession_test_falls_through_when_the_slope_vanishes():
    # ker A = {0} and U = Y0 Y0^T / 2: the objective is <X, Y0> for every V,
    # and h*(C0) = 0 (the rule every h takes at ker A = {0})
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    Y0 = np.array([[1.0], [2.0]])
    prob = InfProjProblem(ProblemData(A, A @ Y0), Linear(0.5 * Y0 @ Y0.T))
    X = np.array([[0.5], [-1.0]])
    pe = eval_p(prob, X)
    assert (pe.status, pe.path) == ("finite", "conjugate")
    assert pe.value == pytest.approx(float(np.sum(X * Y0)), abs=1e-9)
    # A = [1, 0], B = 1, U = [[1/2, 1], [1, 2]]: V12 = x2 - 2 V22 gives
    # p = x1 + 2 x2 for every V22 > 0, and N^T U N - 2 K K^T = 0 is PSD
    prob = InfProjProblem(
        ProblemData(np.array([[1.0, 0.0]]), np.array([[1.0]])),
        Linear(np.array([[0.5, 1.0], [1.0, 2.0]])),
    )
    pe = eval_p(prob, np.array([[0.0], [1.0]]))
    assert (pe.status, pe.path) == ("finite", "weighted_nuclear")
    assert pe.value == pytest.approx(2.0, abs=1e-6)


def test_recession_test_is_exact_when_the_qq_block_vanishes():
    # with Q (U - Y0 Y0^T / 2) Q = 0, and in every other draw P U Q =
    # N K Y0^T, p is finite exactly when R = P U (Q - Y0 Y0^+) = 0 and
    # N^T U N - 2 K K^T >= 0, K = N^T U (Y0^+)^T; it then equals
    # <X, Y0> + 2 <K, N^T X> + |(2 (N^T U N - 2 K K^T))^{1/2} N^T X (I - Y0^+ Y0)|_*,
    # which eval_p now returns in closed form (a descent stopped up to 5.5e-2 above it)
    g = np.random.default_rng(1)
    paths = []
    for i in range(24):
        n, m = int(g.integers(2, 5)), int(g.integers(1, 4))
        A = g.standard_normal((int(g.integers(1, n)), n))
        B = A @ g.standard_normal((n, m)) if i % 3 else np.zeros((A.shape[0], m))
        pd = ProblemData(A, B)
        P, N, Y0 = pd.P, pd.N, pd.Y0
        Q = np.eye(n) - P
        M = g.standard_normal((n, n))
        U = 0.5 * (M + M.T)
        U = U - Q @ U @ Q + 0.5 * Y0 @ Y0.T
        if i % 2:
            off = N @ g.standard_normal((N.shape[1], m)) @ Y0.T
            U = U - P @ U @ Q - Q @ U @ P + off + off.T
        X = g.standard_normal((n, m))
        prob = InfProjProblem(pd, Linear(U))
        pe = eval_p(prob, X)
        paths.append(pe.path)
        if pe.path == "recession":
            vals = _objective_along(prob, X, pe.unbounded_direction, (0.0, 1.0, 10.0, 1e2, 1e4))
            assert np.isfinite(vals[0])
            assert all(b < a for a, b in zip(vals, vals[1:]))
            continue
        Y0p = np.linalg.pinv(Y0)
        assert np.linalg.norm(P @ U @ (Q - Y0 @ Y0p)) < 1e-9
        K = N.T @ U @ Y0p.T
        w, E = np.linalg.eigh(N.T @ U @ N - 2.0 * K @ K.T)
        assert w[0] > -1e-9
        L = (E * np.sqrt(2.0 * np.clip(w, 0.0, None))) @ E.T
        M2 = N.T @ X @ (np.eye(m) - Y0p @ Y0)
        p = float(np.sum(X * Y0) + 2.0 * np.sum(K * (N.T @ X)) + np.sum(sv(L @ M2)))
        assert pe.status == "finite"
        assert abs(pe.value - p) <= 1e-9 * (1.0 + abs(p))
    assert "recession" in paths and "weighted_nuclear" in paths


@settings(max_examples=75, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["linear", "indicator", "support"]))
def test_p_is_nonnegative_without_equality_constraint(seed, kind):
    # with A = 0, phi >= 0; h = <U, .> with U >= 0 is >= 0 on dom phi, and
    # so are delta_S and sigma_S for 0 in S, so p >= 0
    g = np.random.default_rng(seed)
    n, m = int(g.integers(1, 5)), int(g.integers(1, 4))
    if kind == "linear":
        M = g.standard_normal((n, n))
        h = Linear(M @ M.T)
    elif kind == "indicator":
        h = Indicator(_rand_set(g, n))
    else:
        S = _rand_set(g, n)
        if not S.contains_zero(DEFAULT_TOL):
            return
        h = Support(S)
    X = g.standard_normal((n, m))
    # the descent reports the objective at a point of dom h, so the bound
    # holds at every iterate; hull draws are the only ones left on the
    # descent, and a short budget keeps them to a quarter of the time
    pe = eval_p(InfProjProblem(unconstrained(n, m), h), X, max_iter=200)
    assert pe.status in ("finite", "infeasible")
    assert pe.value >= -1e-12 * (1.0 + float(np.sum(X * X)))


# ---------------------------------------------------------------------------
# linear h at every A, and the support function of a ray with A = 0


def _criterion_13_draw(seed, index):
    """Problem `index` of selftest.criterion_13(seed)."""
    return next(itertools.islice(criterion_13_problems(seed), index, None))


def test_indefinite_slope_without_equality_constraint_is_unbounded():
    # criterion 13, seed 0, #21: the descent ran 4000 iterations and
    # reported "finite" -5.77e6
    prob = _criterion_13_draw(0, 21)
    assert isinstance(prob.h, Linear) and not np.any(prob.pd.A)
    assert np.linalg.eigvalsh(prob.h.U)[0] < 0.0
    X = np.random.default_rng([0, 21]).standard_normal((prob.pd.n, prob.pd.m))
    pe = eval_p(prob, X)
    assert (pe.status, pe.path, pe.iters, pe.V) == ("unbounded", "recession", 0, None)
    vals = _objective_along(prob, X, pe.unbounded_direction, (0.0, 1.0, 10.0, 1e2, 1e4))
    assert np.isfinite(vals[0])
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert dual_value(prob, X) == (-np.inf, None, "exact")
    assert dual_gap(prob, X) == (-np.inf, -np.inf, 0.0, "exact")


@pytest.mark.parametrize("seed", range(4))
def test_singular_psd_slope_gives_the_weighted_nuclear_norm(seed):
    # U = L L^T / 2 of rank r < n: the descent stopped up to 25% above p
    g = np.random.default_rng(seed)
    n, m, r = 4, 3, 2
    L = g.standard_normal((n, r))
    prob = InfProjProblem(unconstrained(n, m), Linear(0.5 * L @ L.T))
    X = g.standard_normal((n, m))
    pe = eval_p(prob, X)
    assert (pe.status, pe.path, pe.iters, pe.V) == ("finite", "weighted_nuclear", 0, None)
    assert pe.value == pytest.approx(np.sum(sv(L.T @ X)), rel=1e-12)
    assert xi_member(prob, pe.Y) == (True, "exact")
    assert float(np.sum(X * pe.Y)) == pytest.approx(pe.value, rel=1e-12)


def _finite_linear_problems(seed, count=24):
    """Linear h with A != 0 whose Q (U - Y0 Y0^T / 2) Q block vanishes, and
    in every other draw P U Q = N K Y0^T, as the recession tests draw them."""
    g = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n, m = int(g.integers(2, 5)), int(g.integers(1, 4))
        A = g.standard_normal((int(g.integers(1, n)), n))
        B = A @ g.standard_normal((n, m)) if i % 3 else np.zeros((A.shape[0], m))
        pd = ProblemData(A, B)
        P, N, Y0 = pd.P, pd.N, pd.Y0
        Q = np.eye(n) - P
        M = g.standard_normal((n, n))
        U = 0.5 * (M + M.T)
        U = U - Q @ U @ Q + 0.5 * Y0 @ Y0.T
        if i % 2:
            off = N @ g.standard_normal((N.shape[1], m)) @ Y0.T
            U = U - P @ U @ Q - Q @ U @ P + off + off.T
        out.append((InfProjProblem(pd, Linear(U)), g.standard_normal((n, m))))
    return out


def test_finite_linear_h_with_an_equality_constraint_is_exact():
    # the descent stopped up to 5.5e-2 above p; the closed form's Y is a
    # point of Xi(A, B) with <X, Y> = p, which proves p by weak duality
    finite = 0
    for seed in (1, 2, 3):
        for prob, X in _finite_linear_problems(seed):
            pe = eval_p(prob, X)
            if pe.status == "unbounded":
                continue
            finite += 1
            assert (pe.status, pe.path, pe.iters, pe.V) == ("finite", "weighted_nuclear", 0, None)
            assert xi_member(prob, pe.Y) == (True, "exact")
            assert abs(float(np.sum(X * pe.Y)) - pe.value) <= 1e-12 * (1.0 + abs(pe.value))
            d, Y, status = dual_value(prob, X)
            assert (d, status) == (pe.value, "exact")
    assert finite >= 10


def test_cq_report_decides_linear_h_with_an_empty_lifted_set():
    # A = [1, 0], B = 1, U = I: Xi(A, B) is empty, so SCCQ, PCQ and SPCQ
    # fail; all three used to be undecided
    prob = InfProjProblem(ProblemData(np.array([[1.0, 0.0]]), np.array([[1.0]])), Linear(np.eye(2)))
    rep = cq_report(prob)
    assert (rep.sccq, rep.pcq, rep.spcq, rep.ccq) == ("fails", "fails", "fails", "holds")
    X = np.array([[0.0], [1.0]])
    pe = eval_p(prob, X)
    vals = _objective_along(prob, X, pe.unbounded_direction, (0.0, 1.0, 10.0, 1e2))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_ray_support_without_equality_constraint():
    X = np.array([[0.3, -1.2], [0.8, 0.5], [-0.4, 0.9]])
    pd = unconstrained(3, 2)
    # lambda_min(D) < 0: phi(X, tW) -> 0 for W > 0 with <D, W> <= 0; the
    # descent ran 4000 iterations and reported 4.8e-5
    prob = InfProjProblem(pd, Support(Ray(np.diag([1.0, -1.0, 0.5]))))
    pe = eval_p(prob, X)
    assert (pe.status, pe.value, pe.path, pe.iters, pe.V) == ("finite", 0.0, "ray", 0, None)
    W = np.diag([1.0, 3.0, 1.0])
    assert np.sum(prob.h.set.D * W) <= 0.0 and eval_gmf(pd, X, 1e8 * W).value < 1e-7
    # D >= 0 and X on ker D: V = t e2 e2^T gives phi = |x|^2 / (2t) -> 0;
    # this used to be "infeasible"
    prob = InfProjProblem(pd, Support(Ray(np.diag([1.0, 0.0, 2.0]))))
    on_ker = np.array([[0.0, 0.0], [0.8, 0.5], [0.0, 0.0]])
    pe = eval_p(prob, on_ker)
    assert (pe.status, pe.value, pe.path, pe.V) == ("finite", 0.0, "ray", None)
    # D >= 0 and DX != 0: V >= 0 with <D, V> <= 0 lives on ker D
    pe = eval_p(prob, X)
    assert (pe.status, pe.value, pe.path) == ("infeasible", np.inf, "ray")


def test_linear_h_never_runs_the_descent(monkeypatch):
    import gmfkit.infproj

    def refuse(*args, **kwargs):
        raise AssertionError("linear h reached the descent")

    monkeypatch.setattr(gmfkit.infproj, "_descent", refuse)
    g = np.random.default_rng(8)
    cases = _linear_problems_with_a_kernel_constraint(20) + _finite_linear_problems(1, 12)
    for _ in range(20):
        n, m = int(g.integers(1, 5)), int(g.integers(1, 4))
        M = g.standard_normal((n, n))
        U = [M @ M.T, 0.5 * (M + M.T), M[:, :1] @ M[:, :1].T][int(g.integers(3))]
        cases.append((InfProjProblem(unconstrained(n, m), Linear(U)), g.standard_normal((n, m))))
    for prob, X in cases:
        assert eval_p(prob, X).path in ("weighted_nuclear", "recession")


def test_linear_eval_p_factorizes_once(linalg_calls):
    g = np.random.default_rng(4)
    n, m = 5, 3
    L = np.linalg.qr(g.standard_normal((n, n)))[0] * g.uniform(0.5, 1.5, n)
    pd, h = unconstrained(n, m), Linear(0.5 * L @ L.T)
    linalg_calls.clear()
    prob = InfProjProblem(pd, h)
    assert linalg_calls == {}
    for i in range(3):
        X = g.standard_normal((n, m))
        linalg_calls.clear()
        pe = eval_p(prob, X)
        assert linalg_calls == ({"eigh": 1, "svd": 1} if i == 0 else {"svd": 1})
        assert (pe.path, pe.value) == ("weighted_nuclear", pytest.approx(np.sum(sv(L.T @ X)), rel=1e-12))
        assert pe.V is not None


def test_linear_h_with_an_equality_constraint_factorizes_once_per_X(linalg_calls):
    # pinv(Y0), the eigh of M and the SVD used to run on every call; now
    # the first call builds the problem's factors and each later X costs
    # one SVD
    finite = 0
    for prob, X in _finite_linear_problems(1):
        eval_p(prob, X)
        for f in (eval_p, dual_value):
            linalg_calls.clear()
            out = f(prob, X)
            unbounded = (out.value if f is eval_p else out[0]) == -np.inf
            assert linalg_calls == ({} if unbounded else {"svd": 1})
            finite += not unbounded
    assert finite >= 10


def test_cq_report_on_linear_h_reads_the_problem_s_ray(linalg_calls):
    # the report used to run _linear_path at X = 0 (a pinv, an eigh and an
    # SVD); on a problem whose factors eval_p has built, with A != 0, it
    # factors nothing (BPCQ tests dom h's normal for D > 0 only at A = 0)
    verdicts = set()
    for prob, X in _finite_linear_problems(1) + _linear_problems_with_a_kernel_constraint(10):
        eval_p(prob, X)
        linalg_calls.clear()
        rep = cq_report(prob)
        assert linalg_calls == {}
        verdicts.add(rep.sccq)
    assert verdicts == {"holds", "fails"}


def test_problems_that_never_read_the_slope_do_not_factor_it(linalg_calls):
    # building a problem factors nothing, so a problem that an earlier
    # closed form answers never pays for its slope
    pd, X = unconstrained(4, 2), np.ones((4, 2))
    linalg_calls.clear()
    box = InfProjProblem(pd, Support(SpectralBox(0.0, 1.0, 4)))
    lin = InfProjProblem(pd, Linear(np.eye(4)))
    assert linalg_calls == {}
    assert eval_p(box, X).path == "spectral"
    assert linalg_calls == {"svd": 1}
    assert eval_p(lin, X).path == "weighted_nuclear"
    assert linalg_calls == {"svd": 2, "eigh": 1}


def test_a_problem_reused_over_many_X_matches_a_fresh_one_per_X():
    g = np.random.default_rng(11)
    L = g.standard_normal((4, 4))
    probs = [p for p, _ in _finite_linear_problems(2, 6)] + [
        InfProjProblem(unconstrained(4, 2), Linear(0.5 * L @ L.T)),
        InfProjProblem(unconstrained(4, 2), Support(ShiftedPSDCap(0.5 * L @ L.T))),
        _criterion_13_draw(0, 21),
    ]
    for prob in probs:
        for _ in range(3):
            X = g.standard_normal((prob.pd.n, prob.pd.m))
            fresh = InfProjProblem(prob.pd, prob.h)
            for f in (eval_p, dual_value):
                a, b = f(prob, X), f(fresh, X)
                a, b = (list(vars(a).values()), vars(b).values()) if f is eval_p else (a, b)
                for x, y in zip(a, b):
                    same = x is y is None or x == y if not isinstance(x, np.ndarray) else x.tobytes() == y.tobytes()
                    assert same
                for x in a:  # a caller that writes into an output leaves prob as it was
                    if isinstance(x, np.ndarray):
                        x[...] = np.nan


def test_indicator_of_a_ray_without_equality_constraint():
    pd = unconstrained(3, 2)
    # D >= 0 and rge X in rge D: phi(X, tD) = phi(X, D)/t -> 0; the descent
    # ran 4000 steps and reported "finite" 4.6e-6 to 1.4e-2
    prob = InfProjProblem(pd, Indicator(Ray(np.diag([1.0, 0.0, 2.0]))))
    X = np.array([[0.3, -1.2], [0.0, 0.0], [-0.4, 0.9]])
    pe = eval_p(prob, X)
    assert (pe.status, pe.value, pe.path, pe.iters, pe.V) == ("finite", 0.0, "ray", 0, None)
    assert eval_gmf(pd, X, 1e8 * prob.h.set.D).value < 1e-7
    d, Y, status = dual_value(prob, X)
    assert (d, status) == (0.0, "numeric") and not np.any(Y)
    # X off rge D: no V = tD has X in its range
    X[1, 0] = 0.5
    pe = eval_p(prob, X)
    assert (pe.status, pe.value, pe.path) == ("infeasible", np.inf, "ray")
    assert dual_value(prob, X)[1:] == (None, "undecided")
    # D not PSD: S meets the PSD cone in V = 0 alone
    prob = InfProjProblem(pd, Indicator(Ray(np.diag([1.0, -1.0, 2.0]))))
    assert eval_p(prob, X).status == "infeasible"
    pe = eval_p(prob, np.zeros((3, 2)))
    assert (pe.status, pe.value, pe.path) == ("finite", 0.0, "ray")


def _ray_rows():
    """The problems of criterion 13 (seeds 0-4) that the ray rule serves,
    each with its X: h built on a ray at A = 0, and the indicator of a ray
    at every other A with ker A != {0}."""
    rows = []
    for seed in range(5):
        for i, prob in enumerate(criterion_13_problems(seed)):
            if isinstance(prob.h, Linear) or not isinstance(prob.h.set, Ray) or prob.pd.ker_trivial:
                continue
            if np.any(prob.pd.A) and isinstance(prob.h, Support):
                continue
            rows.append((prob, np.random.default_rng([seed, i]).standard_normal((prob.pd.n, prob.pd.m))))
    return rows


def test_a_ray_with_negative_gamma_is_unbounded_at_a_general_A():
    # phi(X, alpha D) = 0.3 + 2/alpha - 5e-4 alpha, so p = -inf; the descent
    # reported "finite" -997256.8 after 4000 steps, with the dual undecided
    pd = ProblemData(np.array([[1.0, 0.0]]), np.array([[1.0]]))
    D = np.diag([1e-3, 1.0])
    prob, X = InfProjProblem(pd, Indicator(Ray(D))), np.array([[0.3], [2.0]])
    for alpha in (0.5, 1.0, 1e3):
        assert eval_gmf(pd, X, alpha * D).value == pytest.approx(0.3 + 2.0 / alpha - 5e-4 * alpha, rel=1e-12)
    pe = eval_p(prob, X)
    assert (pe.status, pe.value, pe.path, pe.iters) == ("unbounded", -np.inf, "recession", 0)
    assert np.array_equal(pe.unbounded_base, D)
    assert np.allclose(pe.unbounded_direction, D / np.linalg.norm(D), rtol=0.0, atol=1e-15)
    assert dual_value(prob, X) == (-np.inf, None, "exact")
    rep = cq_report(prob)
    assert (rep.ccq, rep.sccq, rep.pcq, rep.spcq) == ("holds", "fails", "fails", "fails")


def _ray_draw(g, kind):
    """(prob, X) for h the indicator of a ray pos{D} at a random A with
    ker A != {0}: D PSD of low rank, indefinite, or with N^T D N PSD of
    rank one less than ker A, where N^T D Y0 off its range pins alpha."""
    n, m = int(g.integers(2, 5)), int(g.integers(1, 3))
    A = g.standard_normal((int(g.integers(1, n)), n))
    pd = ProblemData(A, A @ g.standard_normal((n, m)))
    if kind == "psd_low_rank":
        M = g.standard_normal((n, int(g.integers(1, n))))
        D = M @ M.T
    else:
        R = g.standard_normal((n, n))
        D = R + R.T
        if kind == "pinned":
            N = pd.N
            W = g.standard_normal((N.shape[1], N.shape[1] - 1))
            D = D - N @ (N.T @ D @ N - W @ W.T) @ N.T
    return InfProjProblem(pd, Indicator(Ray(D))), g.standard_normal((n, m))


@pytest.mark.parametrize("kind", ["psd_low_rank", "indefinite", "pinned"])
def test_the_indicator_of_a_ray_agrees_with_the_descent(kind):
    # the descent stays as the oracle: its values are objective values, so
    # never below p, and its statuses count wherever it stopped before
    # max_iter, but for the pinned alpha, which its starts cannot hit
    g = np.random.default_rng(["psd_low_rank", "indefinite", "pinned"].index(kind))
    max_iter, statuses = 1000, set()
    for _ in range(20):
        prob, X = _ray_draw(g, kind)
        D = prob.h.set.D
        pe, ref = eval_p(prob, X), _descent(prob, X, max_iter, 0)
        assert pe.iters == 0 and pe.path == ("recession" if pe.status == "unbounded" else "ray")
        statuses.add(pe.status)
        if pe.status == "finite":
            p, slack = pe.value, 1e-12 * (1.0 + abs(pe.value))
            assert ref.status != "finite" or p <= ref.value + 1e-9 * (1.0 + abs(ref.value))
            if pe.V is not None:
                assert Ray(D).member(pe.V, DEFAULT_TOL)
                assert eval_gmf(prob.pd, X, pe.V).value == pytest.approx(p, rel=1e-12, abs=1e-12)
            else:  # gamma = 0: phi(X, alpha D) = p + beta / alpha, approached only
                vals = [eval_gmf(prob.pd, X, alpha * D).value for alpha in (1e2, 1e4, 1e6)]
                assert min(vals) >= p - slack and vals[2] - p <= 1e-2 * (vals[0] - p) + slack
        if pe.status == "unbounded":
            assert np.array_equal(pe.unbounded_base, D)
            vals = [eval_gmf(prob.pd, X, alpha * D).value for alpha in (1.0, 10.0, 100.0, 1e4)]
            assert np.isfinite(vals[0]) and all(b < a for a, b in zip(vals, vals[1:]))
        if ref.iters >= max_iter:
            continue
        if (pe.status, ref.status) == ("finite", "infeasible"):
            assert kind == "pinned" and prob._pencil.pinned and np.any(pe.V)
        else:
            assert pe.status == ref.status
    assert statuses == ({"finite", "infeasible"} if kind == "pinned" else {"finite", "infeasible", "unbounded"})


def test_dom_p_member_decides_the_indicator_of_a_ray_at_every_A():
    # the 45 rows at A != 0: 33 negative answers were "sampled"
    rows = [(prob, X) for prob, X in _ray_rows() if isinstance(prob.h, Indicator) and np.any(prob.pd.A)]
    assert len(rows) == 45
    negatives = 0
    for prob, X in rows:
        found, V, status = dom_p_member(prob, X)
        assert found == (eval_p(prob, X).status != "infeasible")
        assert status == ("witness" if found else "exhaustive")
        if found:
            assert Ray(prob.h.set.D).member(V, DEFAULT_TOL) and np.isfinite(eval_gmf(prob.pd, X, V).value)
        negatives += not found
    assert negatives == 33


@pytest.mark.parametrize(
    "seed,index,sccq", [(0, 240, "fails"), (0, 260, "fails"), (2, 373, "fails"), (2, 151, "holds"), (2, 477, "holds"), (3, 353, "holds")]
)
def test_sccq_of_the_indicator_of_a_ray_at_a_general_A(seed, index, sccq):
    # N^T D N > 0, so CCQ holds, and Y* = Y0 - N (N^T D N)^{-1} N^T D Y0
    # minimizes <Y, DY> over AY = B: Xi(A, B) is empty iff Y* misses it.
    # Each verdict was "undecided"
    prob = _criterion_13_draw(seed, index)
    pd, D = prob.pd, prob.h.set.D
    Y = pd.Y0 - pd.N @ np.linalg.solve(pd.N.T @ D @ pd.N, pd.N.T @ D @ pd.Y0)
    assert xi_member(prob, Y) == (sccq == "holds", "exact")
    rep = cq_report(prob)
    assert (rep.ccq, rep.sccq) == ("holds", sccq)
    # 0 in Omega_2 + dom h* iff Xi is not empty
    assert rep.pcq == rep.spcq == ("fails" if sccq == "fails" else "undecided")


def _psd_hulls(count=40):
    """(h, X, a, b): the indicator of a hull of 2-3 vertices M M^T / n, and
    one equality row a Y = b."""
    g = np.random.default_rng(2024)
    out = []
    for _ in range(count):
        n, m = int(g.integers(2, 4)), int(g.integers(1, 3))
        pts = []
        for _ in range(int(g.integers(2, 4))):
            M = g.standard_normal((n, n))
            pts.append(M @ M.T / n)
        X = g.standard_normal((n, m))
        a = g.standard_normal((1, n))
        out.append((Indicator(Hull(tuple(pts))), X, a, a @ g.standard_normal((n, m))))
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_decided_dual_values_bound_p_on_the_ray_rows():
    # the ascent returned 5.6e-5 against p = 8.4e-6 on three Indicator(Ray)
    # rows and ran off to 1e154 on the infeasible ones; at A != 0 the
    # three unbounded rows' duals were undecided
    rows = _ray_rows()
    assert len(rows) == 135
    decided = 0
    for prob, X in rows:
        p = eval_p(prob, X).value
        d, Y, status = dual_value(prob, X)
        if status == "undecided":
            assert (p, Y) == (np.inf, None)
            continue
        decided += 1
        if status == "exact":
            assert d == p == -np.inf
            continue
        assert status == "numeric"
        assert d <= p + DEFAULT_TOL.conj_rel * (1.0 + abs(p))
        if np.any(prob.pd.A):
            assert d == pytest.approx(p, rel=1e-9, abs=1e-9)
        else:
            assert d == p == 0.0
    assert decided == 48


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("with_row", [False, True], ids=["A=0", "one-row-A"])
def test_decided_dual_values_bound_p_on_hulls(with_row):
    # the gap reached 9.4e-3 (A = 0) and 3.9e-3 (one row) while the hull's
    # projection fitted its weights with a heavily weighted row
    for h, X, a, b in _psd_hulls():
        pd = ProblemData(a, b) if with_row else unconstrained(*X.shape)
        p, d, gap, status = dual_gap(InfProjProblem(pd, h), X)
        assert status == "numeric"
        assert d <= p + DEFAULT_TOL.conj_rel * (1.0 + abs(p))
        assert gap <= 1e-6


def test_dual_gap_runs_the_descent_once(monkeypatch):
    import gmfkit.infproj

    calls = []

    def counted(*args, _real=gmfkit.infproj._descent):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(gmfkit.infproj, "_descent", counted)
    h, X, a, b = _psd_hulls(1)[0]
    dual_gap(InfProjProblem(ProblemData(a, b), h), X)
    assert len(calls) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["trace-ball", "hull"])
def test_dual_gap_is_the_fenchel_gap(case):
    if case == "hull":
        h, X, a, b = _psd_hulls(1)[0]
        prob = InfProjProblem(ProblemData(a, b), h)
    else:
        X = np.random.default_rng(0).standard_normal((3, 2))
        prob = InfProjProblem(unconstrained(3, 2), Indicator(TraceBall(1.0, 3)))
    p, d, gap, status = dual_gap(prob, X)
    _, fenchel_gap, conj_status = subdiff_p_witness(prob, X)
    assert (status, conj_status) == ("numeric", "exact")
    assert gap == pytest.approx(fenchel_gap, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# constraint qualifications read from dom h and dom h*


def test_pcq_of_ray_support_without_constraint_needs_a_positive_definite_direction():
    # 0 in int(pos{D} - PSD) needs D > 0; the report said "holds" whenever D
    # had a negative eigenvalue, which is the CCQ rule
    rep = cq_report(InfProjProblem(unconstrained(2, 1), Support(Ray(np.diag([1.0, -1.0])))))
    assert (rep.pcq, rep.spcq) == ("fails", "fails")
    rep = cq_report(InfProjProblem(unconstrained(2, 1), Support(Ray(np.diag([1.0, 2.0])))))
    assert (rep.pcq, rep.spcq) == ("holds", "holds")


def test_support_of_a_hull_missing_C0_with_trivial_kernel():
    # A = I: Omega_2 = {-C0} with C0 = BB^T/2, which hull{2I, 3I} misses;
    # the report said pcq = spcq = holds because 3I >= C0
    pd = ProblemData(np.eye(2), np.array([[0.1], [0.2]]))
    prob = InfProjProblem(pd, Support(Hull((2.0 * np.eye(2), 3.0 * np.eye(2)))))
    rep = cq_report(prob)
    assert (rep.pcq, rep.spcq, rep.sccq) == ("fails", "fails", "fails")
    assert xi_member(prob, pd.Y0) == (False, "exact")
    assert eval_p(prob, np.array([[1.0], [1.0]])).value == -np.inf


def test_a_psd_ray_of_rank_one_less_misses_the_interior_on_every_rotation():
    # D = Q diag(1, 2, 0) Q^T: both verdicts followed the sign of D's
    # rounding-level eigenvalue and read "holds" on about half the rotations
    g = np.random.default_rng(0)
    for _ in range(50):
        Q, _ = np.linalg.qr(g.standard_normal((3, 3)))
        D = Q @ np.diag([1.0, 2.0, 0.0]) @ Q.T
        assert cq_report(InfProjProblem(unconstrained(3, 1), Indicator(Ray(D)))).ccq == "fails"
        assert cq_report(InfProjProblem(unconstrained(3, 1), Support(Ray(D)))).pcq == "fails"


def test_a_singleton_below_the_psd_floor_has_no_point_in_the_cone():
    # U's eigenvalue -5e-9 lies below -psd_abs, which eval_gmf reads as
    # U outside the PSD cone; the conjugate scaled the floor by |U| and
    # read it as inside
    from gmfkit.vgf import VgfInstance

    U = np.diag([10.0, -5e-9])
    prob = InfProjProblem(unconstrained(2, 1), Indicator(Singleton(U)))
    g = np.random.default_rng(0)
    for Z in [np.ones((2, 1))] + [g.standard_normal((2, 1)) for _ in range(5)]:
        assert eval_p(prob, Z).value == np.inf  # p is +inf at every X
        assert eval_p_conj(prob, Z) == (-np.inf, "exact")  # so p* is -inf at every Y
    with pytest.raises(ValueError, match="meet the PSD cone"):
        VgfInstance(Singleton(U), 1)


def test_ccq_of_a_ray_support_reads_the_floor_the_ray_path_reads():
    # D = diag(1, -5e-7) with psd_abs = 1e-6: the "ray" path takes D >= 0
    # (X off ker D is infeasible), so <D, V> <= 0 misses int PSD; CCQ held
    # because Halfspace compared with the default psd_abs
    pd = ProblemData(np.zeros((1, 2)), np.zeros((1, 1)), Tolerances(psd_abs=1e-6))
    prob = InfProjProblem(pd, Support(Ray(np.diag([1.0, -5e-7]))))
    assert eval_p(prob, np.array([[1.0], [0.0]])).status == "infeasible"
    assert cq_report(prob).ccq == "fails"


def _criterion_13_reports(select):
    """(problem, report) for the criterion-13 problems (seeds 0-4) that
    select(problem) keeps."""
    return [(p, cq_report(p)) for seed in range(5) for p in criterion_13_problems(seed) if select(p)]


def _int_KA_point_in_the_halfspace(D, N):
    """Some V with N^T V N > 0 and <D, V> <= 0, from D and N alone."""
    if N.shape[1] == 0:
        return -D  # int K_A is all of S^n
    P = N @ N.T
    E = N.T @ D @ N
    R = D - P @ D @ P  # N^T R N = 0 and <D, R> = |R|^2
    if np.linalg.norm(R) > 1e-6:
        return P - (max(np.trace(E), 0.0) / np.sum(R * R) + 1.0) * R
    lam, Q = np.linalg.eigh(E)
    if lam[0] >= 0.0:
        assert not np.any(np.abs(E) > 1e-12)  # D = 0: every V qualifies
        return P
    q = N @ Q[:, :1]  # eps I + c q q^T on ker A, with eps tr E + c lam_0 < 0
    return 1e-3 * P + (1e-3 * abs(np.trace(E)) + 1.0) / -lam[0] * q @ q.T


def test_ccq_of_ray_support_has_an_explicit_interior_point():
    rows = _criterion_13_reports(lambda p: isinstance(p.h, Support) and isinstance(p.h.set, Ray))
    held = [(p, r) for p, r in rows if r.ccq == "holds"]
    assert len(held) == 102 and all(r.ccq == "fails" for p, r in rows if r.ccq != "holds")
    for prob, _ in held:
        D, N = prob.h.set.D, prob.pd.N
        V = _int_KA_point_in_the_halfspace(D, N)
        assert N.shape[1] == 0 or np.linalg.eigvalsh(N.T @ V @ N)[0] >= 1e-4
        assert np.sum(D * V) <= 1e-12 * (1.0 + np.linalg.norm(D) * np.linalg.norm(V))


def test_sccq_failures_with_trivial_kernel_miss_dom_h_conj():
    # Y0 is the only solution of AY = B, so SCCQ fails iff C0 = Y0 Y0^T/2
    # lies outside dom h*; certify that by the support function alone
    rows = _criterion_13_reports(lambda p: not isinstance(p.h, Linear) and p.pd.N.shape[1] == 0)
    failed = [p for p, r in rows if r.sccq == "fails"]
    assert len(failed) == 119
    for prob in failed:
        S = prob.h.set
        C0 = 0.5 * prob.pd.Y0 @ prob.pd.Y0.T
        if isinstance(prob.h, Indicator):  # dom h* = dom sigma_S
            assert support(S, C0)[0] == np.inf
            continue
        G = C0 - project(S, C0)  # separates C0 from S = dom h*
        assert support(S, G)[0] < np.sum(G * C0) - 1e-9


def test_hull_relative_interior_verdicts_carry_positive_weights():
    rows = _criterion_13_reports(
        lambda p: isinstance(p.h, Support) and isinstance(p.h.set, Hull) and p.pd.N.shape[1] == 0
    )
    held = [p for p, r in rows if r.pcq == "holds"]
    assert len(held) == 8
    for prob in held:
        S = prob.h.set
        C0 = 0.5 * prob.pd.Y0 @ prob.pd.Y0.T
        t, w = S.ri_weights(C0)
        assert t > 0.0 and np.min(w) > 0.0 and abs(np.sum(w) - 1.0) <= 1e-9
        assert np.linalg.norm(sum(wi * U for wi, U in zip(w, S.points)) - C0) <= 1e-8


def test_hull_projection_is_euclidean():
    # KKT: <V - P, U_i - P> <= 0 at every point; the weighted-row fit
    # missed it by up to 0.085 on these draws
    g = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n, k = int(g.integers(1, 4)), int(g.integers(1, 5))
        pts = [M + M.T for M in g.standard_normal((k, n, n))]
        R = g.standard_normal((n, n))
        V = 2.0 * (R + R.T)
        P = project(Hull(tuple(pts)), V)
        worst = max(worst, max(float(np.sum((V - P) * (U - P))) for U in pts))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# every h at ker A = {0}, and support h at A = 0: closed forms, no descent


def _criterion_13_row(seed, index):
    """Problem `index` of selftest.criterion_13(seed) with its X."""
    prob = _criterion_13_draw(seed, index)
    return prob, np.random.default_rng([seed, index]).standard_normal((prob.pd.n, prob.pd.m))


def _values_along_the_ray(prob, X, d, steps=(1.0, 10.0, 1e2, 1e4)):
    """phi(X, td) + h(td) for each t: the rays of the ker A = {0} rule
    start at V = 0."""
    return [eval_gmf(prob.pd, X, t * d).value + h_eval(prob.h, t * d) for t in steps]


@pytest.mark.parametrize("seed,index", [(0, 161), (0, 337), (2, 274), (2, 461), (3, 174), (3, 403)])
def test_support_h_with_trivial_kernel_is_unbounded_when_C0_misses_S(seed, index):
    # C0 = Y0 Y0^T / 2 lies 0.0014-1.47 from S, so h*(C0) = +inf and
    # p = -inf; the descent reported "finite" (-7.6e6 after 4000 steps on
    # 3 #403, <X, Y0> after one step on 0 #337) and dual_gap "undecided"
    prob, X = _criterion_13_row(seed, index)
    assert isinstance(prob.h, Support) and prob.pd.N.shape[1] == 0
    pe = eval_p(prob, X)
    assert (pe.status, pe.path, pe.iters) == ("unbounded", "recession", 0)
    vals = _values_along_the_ray(prob, X, pe.unbounded_direction)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert dual_gap(prob, X) == (-np.inf, -np.inf, 0.0, "exact")


@pytest.mark.parametrize("case", ["conjugate", "slope_D", "slope_M", "spectral_box"])
def test_every_certified_ray_falls_from_its_base(case):
    # unbounded_base is V = 0 on the ker A = {0} rule's rays and I on the
    # slope's and the spectral box's; callers used to guess it
    if case == "conjugate":
        prob, X = _criterion_13_row(0, 337)
    elif case == "slope_D":  # Xi(A, B) empty: the ray V = I + tD
        prob = InfProjProblem(ProblemData(np.array([[1.0, 0.0]]), np.array([[1.0]])), Linear(np.eye(2)))
        X = np.array([[0.0], [1.0]])
    elif case == "slope_M":  # an indefinite U at A = 0: an eigenvector of M
        prob, X = _criterion_13_row(0, 21)
    else:
        prob, X = InfProjProblem(unconstrained(2, 1), Support(SpectralBox(-2.0, -1.0, 2))), np.ones((2, 1))
    pe = eval_p(prob, X)
    assert (pe.status, pe.path) == ("unbounded", "recession")
    base, d = pe.unbounded_base, pe.unbounded_direction
    assert np.array_equal(base, np.zeros_like(d) if case == "conjugate" else np.eye(prob.pd.n))
    vals = [eval_gmf(prob.pd, X, base + t * d).value + h_eval(prob.h, base + t * d) for t in (1.0, 10.0, 1e2, 1e4)]
    assert np.isfinite(vals[0]) and all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "seed,index,path,p",
    [(0, 234, "weighted_nuclear", 0.817035), (3, 345, "weighted_nuclear", 1.976113), (4, 465, "spectral", 2.000349)],
)
def test_support_h_without_equality_constraint_takes_a_closed_form(seed, index, path, p):
    # two shifted PSD caps (greatest element U) and a trace ball: the
    # descent stopped at 2.74055, 3.87909 and 2.38029, with dual_gap
    # "undecided" on the first two and a gap of 1.29 on the third
    prob, X = _criterion_13_row(seed, index)
    assert isinstance(prob.h, Support) and not np.any(prob.pd.A)
    assert eval_p(prob, X).path == path
    value, _, gap, status = dual_gap(prob, X)
    assert value == pytest.approx(p, abs=1e-6)
    assert status == "numeric" and abs(gap) <= 1e-9 * (1.0 + abs(value))


def _two_regime_rows(seed):
    """The criterion-13 rows (with X) that the closed forms serve in full:
    ker A = {0} for every h, and support h of a bounded set other than a
    hull at A = 0."""
    rows = []
    for i, prob in enumerate(criterion_13_problems(seed)):
        h, pd = prob.h, prob.pd
        free_support = (
            isinstance(h, Support)
            and isinstance(h.set, (ShiftedPSDCap, SpectralBox, TraceBall, Fantope))
            and not np.any(pd.A)
        )
        if pd.N.shape[1] == 0 or free_support:
            rows.append((prob, np.random.default_rng([seed, i]).standard_normal((pd.n, pd.m))))
    return rows


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_forms_certify_every_row_of_the_two_regimes(monkeypatch):
    import gmfkit.infproj

    descent = gmfkit.infproj._descent

    def refuse(*args, **kwargs):
        raise AssertionError("a closed-form row reached the descent")

    monkeypatch.setattr(gmfkit.infproj, "_descent", refuse)
    rows = _two_regime_rows(0)
    assert len(rows) == 147
    tol = DEFAULT_TOL.conj_rel
    oracle_runs = {}
    for prob, X in rows:
        pe = eval_p(prob, X)
        assert pe.path != "descent"
        if pe.status == "unbounded":
            vals = _values_along_the_ray(prob, X, pe.unbounded_direction)
            assert all(b < a for a, b in zip(vals, vals[1:]))
            continue
        p = pe.value
        assert pe.status == "finite"
        pstar, status = eval_p_conj(prob, pe.Y)
        assert status == "exact"
        assert abs(float(np.sum(X * pe.Y)) - pstar - p) <= tol * (1.0 + abs(p))
        if pe.V is not None:
            attained = eval_gmf(prob.pd, X, pe.V).value + h_eval(prob.h, pe.V)
            assert abs(attained - p) <= tol * (1.0 + abs(p))
        # the descent reports objective values, so it never lies below p
        family = (prob.h.kind, prob.pd.N.shape[1] == 0, getattr(prob.h, "set", None).__class__)
        if oracle_runs.setdefault(family, 0) < 2:
            oracle_runs[family] += 1
            assert descent(prob, X, 4000, 0).value >= p - 1e-12 * (1.0 + abs(p))
    assert len(oracle_runs) >= 10


# A = e_1^T with n = 3: ker A is spanned by e_2, e_3, so V lies in K_A iff
# its lower 2 x 2 block is PSD; every Y with AY = B has first row B
_A1, _B1 = np.array([[1.0, 0.0, 0.0]]), np.array([[1.0, 2.0]])
_Y1 = np.array([[1.0, 2.0], [0.3, -0.2], [0.1, 0.4]])
_G1 = _Y1 @ _Y1.T


@pytest.mark.parametrize(
    "S, half_sigma",
    [
        (Singleton(np.diag([-1.0, 1.0, 2.0])), 0.5 * float(np.sum(np.diag([-1.0, 1.0, 2.0]) * _G1))),
        (Singleton(np.diag([1.0, -1.0, 1.0])), None),
        (SpectralBox(0.0, 2.0, 3), float(np.trace(_G1))),  # 2 tr G / 2
        (SpectralBox(-1.0, 2.0, 3), None),
        (TraceBall(3.0, 3), 1.5 * float(np.linalg.eigvalsh(_G1)[-1])),
        (Fantope(1, 3), 0.5 * float(np.linalg.eigvalsh(_G1)[-1])),
        (Ray(np.diag([-1.0, 1.0, 0.0])), 0.0),  # <D, G> < 0: only V = 0 counts
        (Ray(np.diag([1.0, -1.0, 1.0])), None),
        (ShiftedPSDCap(np.diag([1.0, 2.0, 0.5])), 0.5 * float(np.sum(np.diag([1.0, 2.0, 0.5]) * _G1))),
    ],
    ids=["singleton_in", "singleton_out", "box_lo0", "box_lo_neg", "trace_ball", "fantope", "ray_in", "ray_out", "psd_cap"],
)
def test_indicator_conjugate_with_a_kernel_constraint(S, half_sigma):
    # p*(Y) = sigma_{S cap K_A}(YY^T)/2, exact where S lies inside K_A and
    # undecided where it does not
    prob = InfProjProblem(ProblemData(_A1, _B1), Indicator(S))
    value, status = eval_p_conj(prob, _Y1)
    if half_sigma is None:
        assert np.isnan(value) and status == "undecided"
    else:
        assert status == "exact" and value == pytest.approx(half_sigma, rel=1e-12, abs=1e-14)
    # off AY = B, p* is +inf whatever S is
    assert eval_p_conj(prob, np.zeros((3, 2))) == (np.inf, "exact")


@pytest.mark.parametrize("h", [Linear(np.diag([1.0, -2.0, 0.5])), Support(TraceBall(1.0, 3))], ids=["linear", "support"])
def test_dom_p_member_witnesses_a_full_domain_with_the_identity(h):
    found, V, status = dom_p_member(InfProjProblem(ProblemData(_A1, _B1), h), _Y1)
    assert (found, status) == (True, "witness") and np.array_equal(V, np.eye(3))


def test_the_zero_ray_is_the_point_zero():
    S, tol, V = Ray(np.zeros((2, 2))), DEFAULT_TOL, np.array([[1.0, 0.5], [0.5, -2.0]])
    assert S.member(np.zeros((2, 2)), tol) and not S.member(V, tol)
    assert np.array_equal(S.project(V, tol), np.zeros((2, 2)))
    value, W = S.psd_cap_support(V, tol)
    assert value == 0.0 and np.array_equal(W, np.zeros((2, 2)))
    assert S.interior_member(np.zeros((2, 2)), tol) == (True, False)
    assert S.interior_member(V, tol) == (False, False)


def test_xi_member_of_a_ray_indicator_with_indefinite_kernel_curvature():
    # dom h* = {V : <D, V> <= 0}; N^T D N = diag(1, -1) is indefinite, so
    # W = G + N E N^T with E >= 0 large along e_3 meets <D, W> <= 0
    prob = InfProjProblem(ProblemData(_A1, _B1), Indicator(Ray(np.diag([5.0, 1.0, -1.0]))))
    assert xi_member(prob, _Y1) == (True, "exact")
    assert xi_member(prob, np.zeros((3, 2))) == (False, "exact")


def test_subdiff_and_dual_gap_report_what_they_cannot_certify():
    X = np.array([[1.0], [0.0]])
    empty = InfProjProblem(unconstrained(2, 1), Indicator(SpectralBox(-2.0, -1.0, 2)))
    with pytest.raises(ValueError, match="not finite"):
        subdiff_p_witness(empty, X)
    # the box [-I, I] does not lie inside K_A for A = [1, 0], so p*(Y) has no rule
    pd = ProblemData(np.array([[1.0, 0.0]]), np.array([[1.0]]))
    prob = InfProjProblem(pd, Indicator(SpectralBox(-1.0, 1.0, 2)))
    assert eval_p(prob, X).status == "finite"
    Y, gap, status = subdiff_p_witness(prob, X)
    assert Y is not None and np.isnan(gap) and status == "undecided"
    p, dv, gap, status = dual_gap(prob, X)
    assert p == pytest.approx(0.5) and np.isnan(dv) and np.isnan(gap) and status == "undecided"


# A hull with 0 as a vertex, where a local search over the weights stopped
# at lambda_min = -3.1e-7 and so denied that S meets the PSD cone
_U1 = np.array(
    [[1.0075, 0.0619, 0.3093, 0.5742], [0.0619, 1.5261, -1.8668, -0.0981],
     [0.3093, -1.8668, 0.8732, 0.0249], [0.5742, -0.0981, 0.0249, -0.4554]]
)
_U2 = np.array(
    [[-0.7642, -0.3061, 0.4237, 0.2521], [-0.3061, -1.199, -0.0173, 0.7056],
     [0.4237, -0.0173, -0.4444, 0.5259], [0.2521, 0.7056, 0.5259, 1.5937]]
)
_ZERO_VERTEX_HULL = Hull((np.zeros((4, 4)), _U1, _U2))


def test_a_hull_with_a_zero_vertex_meets_the_psd_cone():
    S, tol, pd = _ZERO_VERTEX_HULL, DEFAULT_TOL, unconstrained(4, 1)
    assert S.max_min_eig(np.eye(4), tol) >= -tol.psd_abs
    assert S.dominates(np.zeros((4, 4)), tol) is True
    rep = cq_report(InfProjProblem(pd, Indicator(S)))
    assert (rep.pcq, rep.spcq, rep.bpcq) == ("holds", "holds", "holds")
    prob = InfProjProblem(pd, Support(S))
    assert cq_report(prob).sccq == "holds"
    assert xi_member(prob, np.zeros((4, 1))) == (True, "exact")


def test_a_hull_whose_cuts_run_out_is_undecided(monkeypatch):
    from gmfkit import hset

    monkeypatch.setattr(hset, "_MAX_CUTS", 0)
    S, tol, pd = _ZERO_VERTEX_HULL, DEFAULT_TOL, unconstrained(4, 1)
    assert np.isnan(S.max_min_eig(np.eye(4), tol))
    assert S.dominates(np.zeros((4, 4)), tol) is None
    rep = cq_report(InfProjProblem(pd, Indicator(S)))
    assert rep.ccq == rep.bpcq == rep.sccq == "undecided"
    # Support(S): dom h* = S, so PCQ/SPCQ at A = 0 read S's max_min_eig
    prob = InfProjProblem(pd, Support(S))
    rep = cq_report(prob)
    assert rep.pcq == rep.spcq == "undecided"
    assert xi_member(prob, np.zeros((4, 1))) == (None, "undecided")


def test_hull_cq_rules_run_no_nonlinear_solver(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    A = np.random.default_rng(4).standard_normal((2, 4))
    for pd in (unconstrained(4, 1), ProblemData(A, np.zeros((2, 1)))):
        for h in (Indicator(_ZERO_VERTEX_HULL), Support(_ZERO_VERTEX_HULL)):
            cq_report(InfProjProblem(pd, h))


def test_h_of_the_wrong_size_is_refused():
    with pytest.raises(ValueError, match="n x n"):
        InfProjProblem(unconstrained(2, 1), Indicator(TraceBall(1.0, 3)))


# ---------------------------------------------------------------------------
# one rule per problem: the certified empty domain, the witness for the
# support of a ray at A = 0 and the separator ray of a hull at A = 0


def _sweep_row(seed, index):
    prob = _criterion_13_draw(seed, index)
    return prob, np.random.default_rng([seed, index]).standard_normal((prob.pd.n, prob.pd.m))


def test_a_hull_that_misses_k_a_is_infeasible_without_the_descent(monkeypatch):
    import gmfkit.infproj

    # criterion 13, seed 0, #26: the descent's sampled starts found no
    # point of S in K_A, and dom_p_member answered "sampled"
    prob, X = _sweep_row(0, 26)
    assert isinstance(prob.h, Indicator) and isinstance(prob.h.set, Hull)

    def refuse(*args):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(gmfkit.infproj, "_descent", refuse)
    pe = eval_p(prob, X)
    assert (pe.value, pe.status, pe.path, pe.iters) == (np.inf, "infeasible", "domain", 0)
    assert dom_p_member(prob, X) == (False, None, "exhaustive")
    assert prob._ka_slack < -prob.tol.psd_abs  # sup over S of lambda_min(N^T V N)


def test_dom_p_member_witnesses_the_support_of_a_ray_at_a_zero():
    # criterion 13, seed 4, #290: eval_p gives 0.0, while dom_p_member's
    # sampled starts, projected onto <D, V> <= 0, left it (False, "sampled")
    prob, X = _sweep_row(4, 290)
    assert isinstance(prob.h, Support) and isinstance(prob.h.set, Ray) and prob.pd.unconstrained
    assert eval_p(prob, X).value == 0.0
    found, V, status = dom_p_member(prob, X)
    assert (found, status) == (True, "witness")
    assert np.sum(prob.h.set.D * V) == pytest.approx(-1.0) and np.isfinite(_objective(prob, X, V)[0])
    # with D >= 0 the witness is the projector onto ker D, which holds X
    pd, D = unconstrained(3, 2), np.diag([0.0, 0.0, 2.0])
    X = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 0.0]])
    prob = InfProjProblem(pd, Support(Ray(D)))
    found, V, status = dom_p_member(prob, X)
    assert (found, status) == (True, "witness") and np.allclose(V, np.diag([1.0, 1.0, 0.0]))
    assert np.isfinite(_objective(prob, X, V)[0])
    assert dom_p_member(prob, X + 1.0) == (False, None, "exhaustive")
    # one floor decides ker D for both: an eigenvalue above psd_abs is not
    # in it, however small DX is (eval_p said 0.0 there, with no witness)
    prob = InfProjProblem(unconstrained(2, 1), Support(Ray(np.diag([0.0, 5e-9]))))
    assert eval_p(prob, np.ones((2, 1))).status == "infeasible"
    assert dom_p_member(prob, np.ones((2, 1))) == (False, None, "exhaustive")


@pytest.mark.parametrize("seed, index", [(0, 470), (4, 342)])
def test_support_of_a_hull_that_misses_psd_is_unbounded_at_a_zero(seed, index):
    # the descent reported "finite": seed 0 #470 +0.1025, seed 4 #342
    # -2 705 401.6 at the 4000-iteration cap
    prob, X = _sweep_row(seed, index)
    assert isinstance(prob.h, Support) and isinstance(prob.h.set, Hull) and prob.pd.unconstrained
    pe = eval_p(prob, X)
    assert (pe.status, pe.path, pe.iters, pe.V) == ("unbounded", "recession", 0, None)
    base, d, tol = pe.unbounded_base, pe.unbounded_direction, prob.tol
    assert np.array_equal(base, np.eye(prob.pd.n)) and np.linalg.norm(d) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(d)[0] >= -tol.psd_abs and prob.h.set.support(d, tol)[0] < -tol.psd_abs
    F = [eval_gmf_oracle(prob.pd, X, base + t * d).value + prob.h.value(base + t * d, tol)[0] for t in (1.0, 10.0, 100.0)]
    assert F[0] > F[1] > F[2]
    assert dual_value(prob, X) == (-np.inf, None, "exact")
    assert SpectralBox(-2.0, -1.0, 2).psd_separator(tol) is None  # no rule but the hull's


def test_dom_p_member_agrees_with_every_closed_form_rule():
    # over criterion 13's first seed: every witness gives a finite
    # phi(X, V) + h(V), and under a closed form the answer is eval_p's
    # status, decided without sampling
    for i, prob in enumerate(criterion_13_problems(0)):
        X = np.random.default_rng([0, i]).standard_normal((prob.pd.n, prob.pd.m))
        found, V, status = dom_p_member(prob, X)
        assert not found or np.isfinite(_objective(prob, X, V)[0]), i
        if prob._rule is not _descent:
            assert (found, status != "sampled") == (eval_p(prob, X).status != "infeasible", True), i


_EVAL_FIELDS = ("path", "status", "value", "iters", "V", "Y", "unbounded_direction", "unbounded_base")
_CQ_FIELDS = ("pcq", "spcq", "bpcq", "ccq", "sccq", "notes")


def _same_fields(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) or isinstance(x, float):
            if x is None or y is None or not np.array_equal(x, y, equal_nan=True):
                return False
        elif x != y:
            return False
    return True


def test_results_do_not_depend_on_which_call_filled_the_problem_caches():
    # eval_p and cq_report share the problem's rule, factors and slacks,
    # computed by whichever runs first; on a fresh problem, and on one
    # where the other call ran first, each returns the same fields (the
    # descent is capped at 100 iterations, the same cap in every case)
    for i, (a, b) in enumerate(zip(criterion_13_problems(0), criterion_13_problems(0))):
        X = np.random.default_rng([0, i]).standard_normal((a.pd.n, a.pd.m))
        rep_fresh, pe_fresh = cq_report(a), eval_p(b, X, max_iter=100)
        pe_after, rep_after = eval_p(a, X, max_iter=100), cq_report(b)
        assert _same_fields(pe_fresh, pe_after, _EVAL_FIELDS), i
        assert _same_fields(rep_fresh, rep_after, _CQ_FIELDS), i


@pytest.mark.parametrize("index, path, lps", [(172, "descent", 1), (148, "recession", 2)])
def test_support_of_a_hull_at_a_zero_runs_the_cut_lp_once_per_problem(monkeypatch, index, path, lps):
    # seed 0 #172 takes the descent and #148 the separator's ray; the rule
    # choice, the A = 0 PCQ/SPCQ and SCCQ each ran the hull's cuts on the
    # same input: 3 LPs on each.  The PSD slack is now read once, and only
    # the separator (#148) runs its cuts again
    import scipy.optimize

    prob, X = _sweep_row(0, index)
    assert isinstance(prob.h, Support) and isinstance(prob.h.set, Hull) and prob.pd.unconstrained
    calls = []
    real = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert eval_p(prob, X).path == path
    cq_report(prob)
    assert len(calls) == lps
