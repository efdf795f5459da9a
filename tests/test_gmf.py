from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfkit.gmf import (
    ProblemData,
    bordered_matrix,
    eval_gmf,
    eval_gmf_oracle,
    grad_gmf,
    in_KA,
    in_KA_polar,
    in_int_KA,
    in_omega,
)
from gmfkit.numlin import Tolerances

rng = np.random.default_rng(1)


def scalar_pd():
    return ProblemData(np.zeros((1, 1)), np.zeros((1, 1)))


def interior_instance(n=3, m=2, ell=1, seed=None):
    g = np.random.default_rng(seed)
    A = g.standard_normal((ell, n))
    B = A @ g.standard_normal((n, m))
    pd = ProblemData(A, B)
    X = g.standard_normal((n, m))
    M = g.standard_normal((n, n))
    V = 0.5 * (M + M.T) + 2.0 * n * np.eye(n)
    return pd, X, V


def test_problem_data_shapes():
    pd, _, _ = interior_instance(4, 2, 2, seed=0)
    assert pd.n == 4 and pd.m == 2 and pd.ell == 2
    assert pd.N.shape[0] == 4
    assert np.allclose(pd.A @ pd.Y0, pd.B, atol=1e-8)


def test_problem_data_rejects_infeasible_B():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    B = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError):
        ProblemData(A, B)


def test_bordered_matrix_blocks():
    pd, _, V = interior_instance(3, 1, 1, seed=2)
    M = bordered_matrix(pd, V)
    n, ell = pd.n, pd.ell
    assert np.allclose(M[:n, :n], V)
    assert np.allclose(M[n:, :n], pd.A)
    assert np.allclose(M[n:, n:], 0.0)


def test_scalar_values():
    pd = scalar_pd()
    assert eval_gmf(pd, [[1.0]], [[2.0]]).value == 0.25
    assert eval_gmf(pd, [[1.0]], [[0.0]]).value == np.inf
    assert eval_gmf(pd, [[0.0]], [[0.0]]).value == 0.0
    assert eval_gmf(pd, [[1.0]], [[-1.0]]).value == np.inf


def test_eval_gmf_witness_is_maximizer():
    pd, X, V = interior_instance(seed=3)
    ev = eval_gmf(pd, X, V)
    Y = ev.witness_Y
    assert np.allclose(pd.A @ Y, pd.B, atol=1e-8)
    attained = np.sum(Y * X) - 0.5 * np.sum((Y @ Y.T) * V)
    assert attained == pytest.approx(ev.value, rel=1e-9, abs=1e-9)


def test_oracle_agreement():
    for seed in range(20):
        pd, X, V = interior_instance(seed=seed)
        a = eval_gmf(pd, X, V).value
        b = eval_gmf_oracle(pd, X, V).value
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_oracle_is_refined_past_its_pseudoinverse():
    # square A (ell = n = 4): the plain pseudoinverse of the bordered matrix
    # was off by 1.3e-10 relative, eval_gmf by 8.1e-14; the reference is a
    # 50-digit solve of the same KKT system
    pd, X, V = interior_instance(4, 2, 4, seed=108)
    exact = -81.44353920225465277
    assert eval_gmf_oracle(pd, X, V).value == pytest.approx(exact, rel=1e-13)


def test_oracle_rejects_boundary():
    pd = scalar_pd()
    with pytest.raises(ValueError):
        eval_gmf_oracle(pd, [[1.0]], [[0.0]])


def test_infinite_off_range():
    # V singular on the kernel with X outside its range
    pd = scalar_pd()
    assert eval_gmf(pd, [[1.0]], [[0.0]]).value == np.inf


def test_cone_memberships_scalar():
    pd = scalar_pd()
    assert in_KA(pd, np.array([[1.0]]))
    assert in_KA(pd, np.array([[0.0]]))
    assert not in_KA(pd, np.array([[-1.0]]))
    assert in_int_KA(pd, np.array([[1.0]]))
    assert not in_int_KA(pd, np.array([[0.0]]))
    assert in_KA_polar(pd, np.array([[-1.0]]))
    assert not in_KA_polar(pd, np.array([[1.0]]))


def test_KA_with_constraint():
    # A = (1 0): kernel is span{e2}, so only the (2,2) entry matters
    pd = ProblemData(np.array([[1.0, 0.0]]), np.array([[0.0]]))
    V = np.diag([-5.0, 1.0])
    assert in_KA(pd, V)
    assert in_int_KA(pd, V)
    assert not in_KA(pd, np.diag([1.0, -1.0]))


def test_omega_membership():
    pd = scalar_pd()
    Y = np.array([[1.0]])
    W = np.array([[-0.5 - 1e-6]])
    assert in_omega(pd, Y, -0.5 * Y @ Y.T)
    assert in_omega(pd, Y, W)
    assert not in_omega(pd, Y, np.array([[0.0]]))


def test_grad_matches_witness():
    pd, X, V = interior_instance(seed=11)
    Y, GV = grad_gmf(pd, X, V)
    ev = eval_gmf(pd, X, V)
    assert np.allclose(Y, ev.witness_Y)
    assert np.allclose(GV, -0.5 * Y @ Y.T)


def test_positive_homogeneity_in_pair():
    # phi(tX, tV) = t phi(X, V) for t > 0 (support function property)
    pd, X, V = interior_instance(seed=13)
    base = eval_gmf(pd, X, V).value
    scaled = eval_gmf(pd, 3.0 * X, 3.0 * V).value
    assert scaled == pytest.approx(3.0 * base, rel=1e-9)


def test_convexity_in_X():
    pd, X1, V = interior_instance(seed=17)
    X2 = np.random.default_rng(18).standard_normal(X1.shape)
    f = lambda X: eval_gmf(pd, X, V).value
    mid = f(0.5 * (X1 + X2))
    assert mid <= 0.5 * (f(X1) + f(X2)) + 1e-10


def test_sub_floor_eigenvalues_are_not_inverted():
    # V = -1e-15 I lies in K_A = PSD within psd_abs, but its eigenvalues
    # count as zero, so X = (1, 1) leaves the range; inverting them gave -1e15
    pd = ProblemData(np.zeros((1, 2)), np.zeros((1, 1)))
    X = [[1.0], [1.0]]
    assert eval_gmf(pd, X, -1e-15 * np.eye(2)).value == np.inf
    assert eval_gmf(pd, X, 1e-15 * np.eye(2)).value == np.inf
    assert eval_gmf(pd, np.zeros((2, 1)), -1e-15 * np.eye(2)).value == 0.0


@st.composite
def near_singular_instances(draw):
    """A = 0 and V with eigenvalues within 1e-13 of zero among others."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    tiny = st.floats(-1e-13, 1e-13)
    lam = draw(
        st.lists(st.one_of(tiny, st.sampled_from([0.0, 0.5, 2.0])), min_size=n, max_size=n)
        .filter(lambda w: any(abs(x) <= 1e-13 for x in w))
    )
    g = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    Q, _ = np.linalg.qr(g.standard_normal((n, n)))
    V = (Q * np.array(lam)) @ Q.T
    X = g.standard_normal((n, m))
    if draw(st.booleans()):  # in the range of V up to the tiny eigenvalues
        X = V @ X
    return ProblemData(np.zeros((1, n)), np.zeros((1, m))), X, V


@settings(max_examples=150, deadline=None)
@given(near_singular_instances())
def test_eval_gmf_is_nonnegative_without_constraint(inst):
    pd, X, V = inst
    ev = eval_gmf(pd, X, V)
    assert ev.value >= 0.0
    if np.isfinite(ev.value):
        Y = ev.witness_Y
        attained = np.sum(Y * X) - 0.5 * np.sum((Y @ Y.T) * V)
        assert attained == pytest.approx(ev.value, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_witness_multiplier_solves_the_kkt_system(seed):
    # ell = 1..4 against n = 3: ker A is trivial for ell >= 3
    pd, X, V = interior_instance(3, 2, 1 + seed % 4, seed=seed)
    ev = eval_gmf(pd, X, V)
    Y, mu = ev.witness_Y, ev.witness_multiplier
    assert mu.shape == (pd.ell, pd.m)
    scale = 1.0 + np.linalg.norm(X)
    assert np.linalg.norm(V @ Y + pd.A.T @ mu - X) <= 1e-9 * scale
    assert np.linalg.norm(pd.A @ Y - pd.B) <= 1e-9 * (1.0 + np.linalg.norm(pd.B))


def test_kernel_reduction_matches_bordered_oracle():
    for seed in range(20):
        pd, X, V = interior_instance(4, 2, 1 + seed % 5, seed=100 + seed)
        a, b = eval_gmf(pd, X, V), eval_gmf_oracle(pd, X, V)
        assert a.value == pytest.approx(b.value, rel=1e-9, abs=1e-9)
        assert np.allclose(a.witness_Y, b.witness_Y, rtol=1e-9, atol=1e-9)
        assert not a.boundary


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts the scipy.linalg.lapack routines eval_gmf calls from here on,
    and keeps a copy of each matrix passed to dpotrf."""
    import scipy.linalg.lapack as lapack

    calls, potrf_inputs = Counter(), []
    for name in ("dpotrf", "dgesv"):

        def recorded(a, *args, _fn=getattr(lapack, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "dpotrf":
                potrf_inputs.append(np.array(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(lapack, name, recorded)
    return calls, potrf_inputs


@pytest.mark.parametrize("ell", [1, 3])
def test_factorizations_per_evaluation(ell, linalg_calls, lapack_calls):
    # an interior V takes one Cholesky of H - psd_abs I and one LU solve,
    # no eigh; ker A = {0} takes nothing
    calls, potrf_inputs = lapack_calls
    pd, X, V = interior_instance(3, 2, ell, seed=21)
    k = pd.N.shape[1]
    for f in (eval_gmf, grad_gmf):
        for c in (linalg_calls, calls, potrf_inputs):
            c.clear()
        f(pd, X, V)
        assert linalg_calls == {}
        assert calls == ({"dpotrf": 1, "dgesv": 1} if k else {})
    if not k:
        return
    H = pd.N.T @ (V @ pd.N)
    assert np.allclose(potrf_inputs[0], H - pd.tol.psd_abs * np.eye(k), rtol=0.0, atol=1e-12)
    # off the interior the Cholesky fails and one eigh decides, no solve
    lam, Q = np.linalg.eigh(H)
    e = pd.N @ Q[:, 0]
    for shift in (lam[0], lam[0] + 1.0):  # on the boundary, outside K_A
        for c in (linalg_calls, calls):
            c.clear()
        eval_gmf(pd, X, V - shift * np.outer(e, e))
        assert linalg_calls == {"eigh": 1}
        assert calls == {"dpotrf": 1}


def test_gradient_errors_tell_the_cone_from_the_range():
    # (value, boundary) tells the four cases apart
    pd = ProblemData(np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 1)))
    X = np.array([[0.0], [1.0], [0.0]])
    cases = [  # ker A = span{e2, e3}
        (np.eye(3), (0.5, False)),  # interior
        (np.diag([1.0, 1.0, 0.0]), (0.5, True)),  # on the boundary, X in the range
        (np.diag([1.0, 0.0, 1.0]), (np.inf, True)),  # on the boundary, X off the range
        (np.diag([1.0, 1.0, -1.0]), (np.inf, False)),  # outside K_A
    ]
    for V, (value, boundary) in cases:
        ev = eval_gmf(pd, X, V)
        assert (ev.value, ev.boundary) == (pytest.approx(value, rel=1e-15), boundary)
    assert np.allclose(grad_gmf(pd, X, np.eye(3))[0], X)
    for V, _ in cases[1:]:
        with pytest.raises(ValueError, match="interior of K_A"):
            grad_gmf(pd, X, V)


@pytest.mark.parametrize("c", [0.5, 0.999, 1.001, 2.0])
@pytest.mark.parametrize("ell", [0, 2])
def test_the_interior_verdict_at_the_floor_matches_eigh(c, ell):
    # lambda_min(N^T V N) = c psd_abs at A = 0 and at a general A: the
    # Cholesky of H - psd_abs I decides `boundary` as eigh does on that H,
    # for an X off the range of a boundary V and for one in the range of V
    g = np.random.default_rng(int(100 * c) + ell)
    n, m = 5, 2
    A = g.standard_normal((ell, n)) if ell else np.zeros((1, n))
    pd = ProblemData(A, A @ g.standard_normal((n, m)))
    k = pd.N.shape[1]
    Q, _ = np.linalg.qr(g.standard_normal((k, k)))
    lam = np.append(c * pd.tol.psd_abs, np.linspace(1.0, 3.0, k - 1))
    V = pd.N @ ((Q * lam) @ Q.T) @ pd.N.T + pd.A.T @ pd.A
    V = 0.5 * (V + V.T)
    boundary = np.linalg.eigvalsh(pd.N.T @ (V @ pd.N))[0] < pd.tol.psd_abs
    assert boundary == (c < 1.0)
    in_range = V @ (pd.Y0 + pd.N @ g.standard_normal((k, m))) + pd.A.T @ g.standard_normal((pd.ell, m))
    for X, finite in ((g.standard_normal((n, m)), not boundary), (in_range, True)):
        ev = eval_gmf(pd, X, V)
        assert (ev.boundary, np.isfinite(ev.value)) == (boundary, finite)


@pytest.mark.parametrize("seed", range(8))
def test_eval_gmf_matches_a_50_digit_kkt_solve(seed):
    # phi = <[X; B], [Y; mu]>/2 for the KKT solution of the float data,
    # solved in 50 digits.  cond(H) = 1e11 with X = V Y + A^T mu for a
    # moderate maximizer Y, and cond(H) = 1e8 with a generic X, whose
    # value H's smallest eigenvalue dominates
    mpmath = pytest.importorskip("mpmath")
    g = np.random.default_rng([25, seed])
    n, ell, m = 6, 2, 2
    A = g.standard_normal((ell, n))
    Yt = g.standard_normal((n, m))
    pd = ProblemData(A, A @ Yt)
    k = n - ell
    Q, _ = np.linalg.qr(g.standard_normal((k, k)))
    G = g.standard_normal((ell, ell))
    M = np.zeros((n + ell, n + ell))
    M[n:, :n], M[:n, n:] = A, A.T
    for lo, X in ((-8, None), (-5, g.standard_normal((n, m)))):
        lam = 10.0 ** np.append(g.uniform(lo, 3, k - 2), [lo, 3])
        V = pd.N @ ((Q * lam) @ Q.T) @ pd.N.T + A.T @ (G + G.T) @ A
        V = 0.5 * (V + V.T)
        if X is None:
            X = V @ Yt + A.T @ g.standard_normal((ell, m))
        M[:n, :n] = V
        rhs = np.vstack([X, pd.B])
        with mpmath.workdps(50):
            Mp = mpmath.matrix(M.tolist())
            exact = sum(
                mpmath.fdot(b, mpmath.lu_solve(Mp, b)) for b in (mpmath.matrix(col.tolist()) for col in rhs.T)
            ) / 2
        ev = eval_gmf(pd, X, V)
        assert not ev.boundary
        assert abs(ev.value - float(exact)) <= 1e-7 * abs(float(exact))


@pytest.mark.parametrize("w", [(1e-7, 1000.0), (1.5e-9, 10.0), (2e-9, 1e4)])
def test_wide_spectrum_interior_points_are_finite(w):
    # every eigenvalue is at least psd_abs: V is interior, phi(X, V) is
    # finite and the one floor that decides `boundary` inverts them all
    pd = ProblemData(np.zeros((1, 2)), np.zeros((1, 1)))
    X = np.array([[1.0], [1.0]])
    V = np.diag(w)
    exact = 0.5 * (1.0 / w[0] + 1.0 / w[1])
    ev = eval_gmf(pd, X, V)
    assert not ev.boundary
    assert ev.value == pytest.approx(exact, rel=1e-12)
    Y, _ = grad_gmf(pd, X, V)
    assert np.allclose(Y[:, 0], 1.0 / np.array(w), rtol=1e-12)
    if w[0] > 1e3 * Tolerances().rank_rel * w[1]:  # inside the oracle's rank cutoff
        assert eval_gmf_oracle(pd, X, V).value == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ProblemData(np.zeros((2, 2)), np.zeros((1, 1))), "same number of rows"),
        (lambda: ProblemData(np.array([[np.nan, 0.0]]), np.zeros((1, 1))), "finite"),
        (lambda: ProblemData(np.zeros((1, 2)), np.array([[np.inf]])), "finite"),
        # V = I is interior at A = 0, but |X|^2 overflows: an overflow, not a domain verdict
        (lambda: grad_gmf(ProblemData(np.zeros((1, 2)), np.zeros((1, 1))), np.array([[1e200], [0.0]]), np.eye(2)), "overflows"),
    ],
    ids=["row-count", "A-finite", "B-finite", "grad-outside-dom"],
)
def test_gmf_refuses_bad_data(call, match):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize(
    "x, v",
    [((1e200, 0.0), (1.0, 1.0)), ((1e200, 0.0), (1.0, 0.0)), ((0.0, 1e200), (1.0, 0.0))],
    ids=["interior", "boundary", "range-test"],
)
def test_an_overflowing_value_is_refused_not_called_infinite(x, v):
    # x1^2 / 2 overflows where phi is finite; |x2| overflows in the range test
    pd = ProblemData(np.zeros((1, 2)), np.zeros((1, 1)))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        eval_gmf(pd, np.array(x)[:, None], np.diag(v))
    # off the range of a boundary V the value is +inf, a domain verdict
    assert eval_gmf(pd, np.array([[0.0], [1.0]]), np.diag([1.0, 0.0])).value == np.inf
