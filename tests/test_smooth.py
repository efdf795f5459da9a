from functools import partial

import numpy as np
import pytest

from gmfkit.gmf import ProblemData
from gmfkit.numlin import Tolerances, sv
from gmfkit.smooth import (
    FitSpec,
    _barrier,
    _dual_gap,
    _lbfgsb,
    _whiten,
    objective_certificate,
    solve_prox_reference,
    solve_smooth,
)

rng = np.random.default_rng(5)


def scalar_fit(target):
    return FitSpec(A_op=np.eye(1), b=np.array([float(target)]), n=1, m=1)


def unconstrained(n, m):
    return ProblemData(np.zeros((1, n)), np.zeros((1, m)))


def completion_instance(seed, n=5, m=5, rank=2, frac=0.8):
    g = np.random.default_rng(seed)
    M = g.standard_normal((n, rank)) @ g.standard_normal((rank, m))
    mask = g.random((n, m)) < frac
    return FitSpec.from_mask(mask, M), M, mask


def test_fitspec_value():
    fit = scalar_fit(3.0)
    value, grad = fit.value_and_grad(np.array([[1.0]]))
    assert value == pytest.approx(2.0)
    assert grad == pytest.approx(np.array([[-2.0]]))


def test_from_mask_only_observed_entries():
    fit, M, mask = completion_instance(0)
    X = M.copy()
    X[~mask] = 123.0  # unobserved entries must not affect the fit
    assert fit.value_and_grad(X)[0] == pytest.approx(0.0, abs=1e-20)


def test_soft_threshold_oracle():
    # min (x - 3)^2/2 + |x| has solution 2
    fit = scalar_fit(3.0)
    tr = solve_smooth(fit, unconstrained(1, 1), 0.5 * np.eye(1))
    assert tr.status == "Converged"
    assert tr.final_X[0, 0] == pytest.approx(2.0, abs=1e-6)


def test_soft_threshold_zero_region():
    # target below the threshold collapses to zero
    fit = scalar_fit(0.5)
    tr = solve_smooth(fit, unconstrained(1, 1), 0.5 * np.eye(1))
    assert abs(tr.final_X[0, 0]) <= 1e-5


def test_trace_monotone_and_interior():
    fit, _, _ = completion_instance(1)
    tr = solve_smooth(fit, unconstrained(5, 5), 0.5 * 0.25 * np.eye(5))
    Fs = [f for f, _ in tr.iterates]
    assert all(b <= a + 1e-12 for a, b in zip(Fs, Fs[1:]))
    assert all(me > 0 for _, me in tr.iterates)


def test_agreement_with_prox_reference():
    for seed in (2, 3):
        fit, _, _ = completion_instance(seed)
        lam = 0.4
        tr = solve_smooth(fit, unconstrained(5, 5), 0.5 * lam * lam * np.eye(5))
        Xr = solve_prox_reference(fit, np.eye(5), lam)
        assert np.linalg.norm(tr.final_X - Xr) <= 1e-4 * (1 + np.linalg.norm(Xr))


def test_prox_reference_stationarity():
    fit, _, _ = completion_instance(4)
    lam = 0.3
    X = solve_prox_reference(fit, np.eye(5), lam)
    # subgradient optimality of f + lam |.|_* at the reference solution
    r = fit.A_op @ X.ravel(order="F") - fit.b
    G = (fit.A_op.T @ r).reshape(X.shape, order="F")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    pos = s > 1e-8
    # on the row/column space the gradient must cancel lam exactly
    inner = U[:, pos].T @ G @ Vt[pos, :].T
    assert np.allclose(np.diag(inner), -lam, atol=1e-6)


def test_objective_certificate_gap():
    fit, _, _ = completion_instance(6)
    lam = 0.5
    Ubar = 0.5 * lam * lam * np.eye(5)
    tr = solve_smooth(fit, unconstrained(5, 5), Ubar)
    F, p, gap = objective_certificate(fit, Ubar, tr.final_X, tr.final_V)
    assert gap >= -1e-8
    assert p == pytest.approx(lam * np.sum(sv(tr.final_X)), rel=1e-6, abs=1e-8)


def test_rejects_constrained_problem():
    fit = scalar_fit(1.0)
    pd = ProblemData(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        solve_smooth(fit, pd, np.eye(1))


def test_rejects_indefinite_weight():
    fit = scalar_fit(1.0)
    with pytest.raises(ValueError):
        solve_smooth(fit, unconstrained(1, 1), np.zeros((1, 1)))


def test_zero_data_solution_is_zero():
    fit = FitSpec(A_op=np.zeros((0, 4)), b=np.zeros(0), n=2, m=2)
    tr = solve_smooth(fit, unconstrained(2, 2), 0.5 * np.eye(2))
    assert np.linalg.norm(tr.final_X) <= 1e-8


def dense_value_and_grad(fit, X):
    r = fit.A_op @ X.ravel(order="F") - fit.b
    return 0.5 * float(r @ r), (fit.A_op.T @ r).reshape((fit.n, fit.m), order="F")


@pytest.mark.parametrize(
    "shape, mask_rule",
    [
        ((3, 5), "random"),
        ((5, 3), "empty_row"),
        ((4, 4), "full"),  # A_op = np.eye(16)
        ((1, 1), "full"),
    ],
)
def test_selection_by_index_matches_dense_product(shape, mask_rule):
    g = np.random.default_rng(11)
    mask = g.random(shape) < 0.6
    if mask_rule == "empty_row":
        mask[1] = False
    elif mask_rule == "full":
        mask[:] = True
    fit = FitSpec.from_mask(mask, g.standard_normal(shape))
    assert fit._entries is not None
    for _ in range(5):
        X = g.standard_normal(shape)
        value, grad = fit.value_and_grad(X)
        dense_value, dense_grad = dense_value_and_grad(fit, X)
        assert value == dense_value
        assert np.array_equal(grad, dense_grad)


@pytest.mark.parametrize("kind", ["scaled_row", "gaussian", "repeated_column"])
def test_other_operators_take_the_dense_product(kind):
    g = np.random.default_rng(12)
    n, m = 3, 2
    if kind == "scaled_row":
        A = np.eye(n * m)[:4]
        A[2] *= 2.0
    elif kind == "gaussian":
        A = g.standard_normal((5, n * m))
    else:
        A = np.eye(n * m)[[0, 3, 3]]
    fit = FitSpec(A, g.standard_normal(A.shape[0]), n, m)
    assert fit._entries is None
    X = g.standard_normal((n, m))
    value, grad = fit.value_and_grad(X)
    h = 1e-6
    fd = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            E = np.zeros((n, m))
            E[i, j] = h
            fd[i, j] = (fit.value_and_grad(X + E)[0] - fit.value_and_grad(X - E)[0]) / (2 * h)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-6)


def test_empty_fit_is_zero():
    fit = FitSpec(A_op=np.zeros((0, 6)), b=np.zeros(0), n=2, m=3)
    value, grad = fit.value_and_grad(rng.standard_normal((2, 3)))
    assert value == 0.0
    assert np.array_equal(grad, np.zeros((2, 3)))


def test_stage_cap_is_reported():
    fit, _, _ = completion_instance(8)
    tr = solve_smooth(fit, unconstrained(5, 5), 0.5 * 0.16 * np.eye(5), max_iter=2)
    assert tr.status == "IterCap"
    assert any(st.nit == 2 and "LIMIT" in st.message for st in tr.stages)


def test_evaluation_budget_and_last_stage():
    # the solver that ran every stage to gtol 1e-14 and cut mu by 0.1 per
    # stage needed 1230 objective evaluations over 15 stages here, and the
    # one in (Z, C), before C was whitened by Ubar, needed 332
    fit, _, _ = completion_instance(7, n=12, m=12)
    lam = 0.4
    tr = solve_smooth(fit, unconstrained(12, 12), 0.5 * lam * lam * np.eye(12))
    assert tr.status == "Converged"
    assert sum(st.nfev for st in tr.stages) <= 300
    assert len(tr.iterates) == len(tr.stages) + 1
    assert [st.gtol for st in tr.stages[:-1]] == [st.mu for st in tr.stages[:-1]]
    assert (tr.stages[-1].mu, tr.stages[-1].gtol) == (1e-12, 1e-14)
    Xr = solve_prox_reference(fit, np.eye(12), lam)
    assert np.linalg.norm(tr.final_X - Xr) <= 1e-4 * (1 + np.linalg.norm(Xr))


def test_a_tighter_conj_rel_than_the_gap_reports_uncertified():
    # the same solve at the default conj_rel certifies; at 1e-12, below
    # its relative gap, no stage hit the cap and the status says so
    fit, _, _ = completion_instance(7, n=8, m=8)
    Ubar = 0.5 * 0.16 * np.eye(8)
    tr = solve_smooth(fit, unconstrained(8, 8), Ubar)
    strict = solve_smooth(fit, ProblemData(np.zeros((1, 8)), np.zeros((1, 8)), Tolerances(conj_rel=1e-12)), Ubar)
    P = _dual_gap(fit, _whiten(Ubar), tr.final_X)[1]
    assert tr.status == "Converged" and 1e-12 * (1.0 + abs(P)) < tr.dual_gap <= 1e-6 * (1.0 + abs(P))
    assert strict.status == "Uncertified"
    assert all(st.nit < 3000 for st in strict.stages)
    assert np.array_equal(strict.final_X, tr.final_X) and strict.dual_gap == tr.dual_gap


def _lbfgsb_stage(case):
    """(fg, z0, maxiter, gtol) of one barrier stage of a 6 x 6 completion
    at mu = 1e-2: solved to gtol = mu, capped at 3 iterations, or started
    at W = 0, where the barrier returns the wall (1e15, 0)."""
    fit, _, _ = completion_instance(3, n=6, m=6)
    wh = _whiten(0.5 * 0.16 * np.eye(6))
    z0 = np.concatenate([np.zeros(36), (np.sqrt(2.0) * wh.R.T).ravel()])
    fg = partial(_barrier, fit, wh, mu=1e-2)
    if case == "capped":
        return fg, z0, 3, 1e-14
    if case == "wall":
        z0[36:] = 0.0
    return fg, z0, 3000, 1e-2


@pytest.mark.parametrize("case, status", [("converged", 0), ("capped", 1), ("wall", 0)])
def test_lbfgsb_kernel_loop_matches_scipy_minimize(case, status):
    # _lbfgsb drives scipy's private setulb; the public call is the
    # reference it must reproduce, so a change to the kernel's signature
    # or protocol shows here
    import scipy.optimize

    fg, z0, maxiter, gtol = _lbfgsb_stage(case)
    z_start = z0.copy()
    ref = scipy.optimize.minimize(
        fg, z0, jac=True, method="L-BFGS-B", options={"maxiter": maxiter, "ftol": 0.0, "gtol": gtol}
    )
    res = _lbfgsb(fg, z0, maxiter, gtol)
    assert np.array_equal(z0, z_start)
    assert np.array_equal(res.x, ref.x)
    assert (res.nit, res.nfev, res.status, res.message) == (ref.nit, ref.nfev, ref.status, ref.message)
    assert res.status == status
    if case == "capped":
        assert res.nit == 3 and res.message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
    if case == "wall":
        assert fg(z0)[0] == 1e15 and np.array_equal(res.x, z0)


def test_dual_gap_bounds_the_primal_suboptimality():
    fit, _, _ = completion_instance(9, n=4, m=6)
    g = np.random.default_rng(9)
    B = g.standard_normal((4, 4))
    Ubar = 0.05 * (B @ B.T + np.eye(4))
    tr = solve_smooth(fit, unconstrained(4, 6), Ubar)
    F, p, _ = objective_certificate(fit, Ubar, tr.final_X, tr.final_V)
    P = fit.value_and_grad(tr.final_X)[0] + p
    assert 0.0 <= tr.dual_gap <= 1e-6 * (1.0 + abs(P))
    # weak duality: at any X the gap bounds P(X) - P(X*) from above
    for _ in range(5):
        X = tr.final_X + 0.1 * g.standard_normal((4, 6))
        _, pX, _ = objective_certificate(fit, Ubar, X, np.eye(4))
        PX = fit.value_and_grad(X)[0] + pX
        assert _dual_gap(fit, _whiten(Ubar), X)[0] >= PX - P - 1e-12


def test_small_lam_with_a_missing_entry_reaches_the_optimum():
    # the minimizer of f + lam |X|_* completes the rank-1 target, X22 = 1;
    # in (Z, C) the solver stopped at X22 = -0.238 with a relative gap of
    # 1.3e-4 and still reported Converged
    lam = 3e-5
    fit = FitSpec.from_mask(np.array([[True, True], [True, False]]), np.array([[1.0, 2.0], [2.0, 4.0]]))
    pd = ProblemData(np.zeros((1, 2)), np.zeros((1, 2)), Tolerances(psd_abs=1e-12))
    tr = solve_smooth(fit, pd, 0.5 * lam * lam * np.eye(2))
    assert tr.status == "Converged"
    assert tr.final_X[1, 1] == pytest.approx(1.0, abs=1e-4)
    P = fit.value_and_grad(tr.final_X)[0] + lam * float(np.sum(sv(tr.final_X)))
    assert tr.dual_gap <= 1e-6 * (1.0 + abs(P))


def test_full_mask_fit_matches_singular_value_thresholding():
    # with every entry observed the minimizer of f + lam |X|_* is
    # SVT_lam(T); in (Z, C) this instance hit the stage cap after ~18k
    # evaluations
    g = np.random.default_rng(0)
    T = 100.0 * g.standard_normal((11, 2)) @ g.standard_normal((2, 10))
    lam = 0.01
    fit = FitSpec.from_mask(np.ones((11, 10), bool), T)
    tr = solve_smooth(fit, unconstrained(11, 10), 0.5 * lam * lam * np.eye(11))
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    svt = (U * np.maximum(s - lam, 0.0)) @ Vt
    assert tr.status == "Converged"
    assert np.linalg.norm(tr.final_X - svt) <= 1e-8 * (1.0 + np.linalg.norm(svt))


_PD22 = ProblemData(np.zeros((1, 2)), np.zeros((1, 2)))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: FitSpec(np.eye(3), np.zeros(3), 2, 2), "n\\*m columns"),
        (lambda: FitSpec(np.eye(4), np.zeros(3), 2, 2), "rows and target length"),
        (lambda: solve_smooth(FitSpec.from_mask(np.ones((2, 3), bool), np.ones((2, 3))), _PD22, np.eye(2)), "dimensions differ"),
        (lambda: solve_smooth(FitSpec.from_mask(np.ones((2, 2), bool), np.ones((2, 2))), _PD22, np.eye(2), max_iter=0), "max_iter"),
        (lambda: solve_smooth(FitSpec.from_mask(np.ones((2, 2), bool), np.ones((2, 2))), _PD22, np.eye(2), max_iter=-3), "max_iter"),
        (lambda: solve_prox_reference(FitSpec.from_mask(np.ones((2, 2), bool), np.ones((2, 2))), 2.0 * np.eye(2), 0.1), "identity weight"),
        (lambda: objective_certificate(FitSpec.from_mask(np.ones((2, 2), bool), np.ones((2, 2))), np.eye(2), np.ones((2, 2)), np.diag([1.0, 0.0])), "positive definite"),
    ],
    ids=["fit-columns", "fit-rows", "solve-dimensions", "solve-max-iter-0", "solve-max-iter-negative", "prox-weight", "certificate-V"],
)
def test_smooth_refuses_bad_data(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_a_fit_with_non_finite_data_is_refused():
    with pytest.raises(ValueError, match="FitSpec b must be finite"):
        FitSpec(np.eye(2), [1.0, np.nan], 2, 1)
    with pytest.raises(ValueError, match="FitSpec A_op must be finite"):
        FitSpec([[np.inf, 0.0], [0.0, 1.0]], [1.0, 2.0], 2, 1)
    # from_mask reads the observed targets only: a NaN elsewhere is no data
    fit = FitSpec.from_mask(np.array([[True], [False]]), np.array([[2.0], [np.nan]]))
    assert fit.value_and_grad(np.zeros((2, 1)))[0] == 2.0


def _barrier_point(g, n, m):
    """z = (vec Z, rows of W) for a random Z and a well-conditioned W."""
    Z = g.standard_normal((n, m))
    W = np.eye(n) + 0.3 * g.standard_normal((n, n))
    return np.concatenate([Z.ravel(order="F"), W.ravel()])


def _barrier_value_through_v(fit, Ubar, z, mu):
    """The stage objective as written, at C = M W for M = R^{-T}/sqrt(2)
    and Ubar = R R^T, with V = C C^T formed and factored."""
    n, m = fit.n, fit.m
    Z, W = z[: n * m].reshape((n, m), order="F"), z[n * m :].reshape((n, n))
    C = np.linalg.inv(np.linalg.cholesky(Ubar)).T / np.sqrt(2.0) @ W
    V = C @ C.T
    sign, logdet = np.linalg.slogdet(V)
    assert sign > 0
    return fit.value_and_grad(C @ Z)[0] + 0.5 * float(np.sum(Z * Z)) + float(np.sum(Ubar * V)) - mu * logdet


def _barrier_cases():
    g = np.random.default_rng(21)
    mask_fit, _, _ = completion_instance(21, n=4, m=3)
    B = g.standard_normal((4, 4))
    dense_fit = FitSpec(g.standard_normal((7, 12)), g.standard_normal(7), 4, 3)
    return [(mask_fit, 0.08 * np.eye(4)), (dense_fit, 0.1 * (B @ B.T + np.eye(4)))]


@pytest.mark.parametrize("case", [0, 1], ids=["mask-scalar-weight", "dense-full-weight"])
@pytest.mark.parametrize("mu", [0.0, 1e-3, 0.5])
def test_barrier_value_matches_the_formula_through_v(case, mu):
    fit, Ubar = _barrier_cases()[case]
    g = np.random.default_rng([22, case])
    for _ in range(3):
        z = _barrier_point(g, fit.n, fit.m)
        expected = _barrier_value_through_v(fit, Ubar, z, mu)
        assert _barrier(fit, _whiten(Ubar), z, mu)[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("case", [0, 1], ids=["mask-scalar-weight", "dense-full-weight"])
def test_barrier_gradient_matches_central_differences(case):
    fit, Ubar = _barrier_cases()[case]
    z = _barrier_point(np.random.default_rng([23, case]), fit.n, fit.m)
    mu, h, wh = 0.2, 1e-6, _whiten(Ubar)
    F, grad = _barrier(fit, wh, z, mu)
    fd = np.empty_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        fd[i] = (_barrier(fit, wh, z + e, mu)[0] - _barrier(fit, wh, z - e, mu)[0]) / (2 * h)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-6 * (1.0 + abs(F)))


@pytest.mark.parametrize(
    "where, value",
    [("C", 0.0), ("C", np.nan), ("C", np.inf), ("Z", np.nan), ("Z", -np.inf)],
    ids=["singular-C", "nan-C", "inf-C", "nan-Z", "inf-Z"],
)
def test_barrier_wall(where, value):
    fit, Ubar = _barrier_cases()[0]
    n, m = fit.n, fit.m
    z = _barrier_point(np.random.default_rng(24), n, m)
    if where == "C":
        z[n * m + n : n * m + 2 * n] = value  # the second row of W: C = M W is singular or not finite
    else:
        z[3] = value
    for mu in (0.0, 1e-3):
        with np.errstate(invalid="ignore"):
            F, grad = _barrier(fit, _whiten(Ubar), z, mu)
        assert F == 1e15
        assert np.array_equal(grad, np.zeros_like(z))


def test_each_evaluation_factors_c_once(monkeypatch, linalg_inputs):
    import scipy.linalg.lapack

    shapes, real = [], scipy.linalg.lapack.dgetrf

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", counted)
    fit, _, _ = completion_instance(2, n=6, m=6)
    pd = unconstrained(6, 6)
    linalg_inputs.clear()
    tr = solve_smooth(fit, pd, 0.08 * np.eye(6))
    assert tr.status == "Converged"
    # every objective evaluation, the start and one incumbent check per stage
    assert len(shapes) == sum(st.nfev for st in tr.stages) + len(tr.stages) + 1
    assert set(shapes) == {(6, 6)}
    # numpy.linalg: the Ubar check, its one Cholesky, one min_eig per
    # iterate and two SVDs for the dual gap; none per evaluation
    assert sum(linalg_inputs.values()) <= len(tr.stages) + 6
