import numpy as np
import pytest

from gmfkit.gmf import ProblemData
from gmfkit.numlin import sv
from gmfkit.smooth import (
    FitSpec,
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
    Fs = [f for f, _, _ in tr.iterates]
    assert all(b <= a + 1e-12 for a, b in zip(Fs, Fs[1:]))
    assert all(me > 0 for _, _, me in tr.iterates)


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
