import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfkit.gmf import ProblemData, eval_gmf
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
    _start_candidates,
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
from gmfkit.numlin import DEFAULT_TOL, sv
from gmfkit.selftest import _rand_set

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
    g = np.random.default_rng(4)
    n, m = 5, 3
    L = np.linalg.qr(g.standard_normal((n, n)))[0] * g.uniform(0.5, 1.5, n)
    prob = InfProjProblem(unconstrained(n, m), Linear(0.5 * L @ L.T))
    X = g.standard_normal((n, m))
    linalg_calls.clear()
    value, Y, status = dual_value(prob, X)
    assert linalg_calls == {"eigh": 1, "svd": 1}
    assert status == "exact"
    assert value == pytest.approx(np.sum(sv(L.T @ X)), rel=1e-12)
    assert float(np.sum(X * Y)) == pytest.approx(value, rel=1e-12)


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


def _criterion_13_problems(seed):
    """The 500 problems of selftest.criterion_13(seed), replayed."""
    g = np.random.default_rng(seed)
    for _ in range(500):
        n, m = int(g.integers(1, 5)), int(g.integers(1, 4))
        if g.random() < 0.4:
            A, B = np.zeros((1, n)), np.zeros((1, m))
        else:
            A = g.standard_normal((int(g.integers(1, 3)), n))
            B = A @ g.standard_normal((n, m))
        kind = int(g.integers(3))
        if kind == 0:
            M = g.standard_normal((n, n))
            h = Linear(M @ M.T if g.random() < 0.7 else 0.5 * (M + M.T))
        else:
            S = _rand_set(g, n)
            h = Indicator(S) if kind == 1 else Support(S)
        yield InfProjProblem(ProblemData(A, B), h)


def _criterion_13_draw(seed, index):
    """Problem `index` of selftest.criterion_13(seed)."""
    return next(itertools.islice(_criterion_13_problems(seed), index, None))


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
    prob = InfProjProblem(unconstrained(n, m), Linear(0.5 * L @ L.T))
    X = g.standard_normal((n, m))
    linalg_calls.clear()
    pe = eval_p(prob, X)
    assert linalg_calls == {"eigh": 1, "svd": 1}
    assert (pe.path, pe.value) == ("weighted_nuclear", pytest.approx(np.sum(sv(L.T @ X)), rel=1e-12))


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


def _ray_rows_without_equality_constraint():
    """The A = 0 problems of criterion 13 (seeds 0-4) with h built on a
    ray, each with its X."""
    rows = []
    for seed in range(5):
        for i, prob in enumerate(_criterion_13_problems(seed)):
            if isinstance(prob.h, Linear) or not isinstance(prob.h.set, Ray) or np.any(prob.pd.A):
                continue
            rows.append((prob, np.random.default_rng([seed, i]).standard_normal((prob.pd.n, prob.pd.m))))
    return rows


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
    # rows and ran off to 1e154 on the infeasible ones
    rows = _ray_rows_without_equality_constraint()
    assert len(rows) == 90
    decided = 0
    for prob, X in rows:
        p = eval_p(prob, X).value
        d, Y, status = dual_value(prob, X)
        if status == "undecided":
            assert (p, Y) == (np.inf, None)
            continue
        decided += 1
        assert status == "numeric"
        assert d <= p + DEFAULT_TOL.conj_rel * (1.0 + abs(p))
        assert d == p == 0.0
    assert decided == 36


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


def _criterion_13_reports(select):
    """(problem, report) for the criterion-13 problems (seeds 0-4) that
    select(problem) keeps."""
    return [(p, cq_report(p)) for seed in range(5) for p in _criterion_13_problems(seed) if select(p)]


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
    for i, prob in enumerate(_criterion_13_problems(seed)):
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
