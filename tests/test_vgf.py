import numpy as np
import pytest

from gmfkit import hset
from gmfkit.hset import (
    Fantope,
    Hull,
    Ray,
    ShiftedPSDCap,
    Singleton,
    SpectralBox,
    TraceBall,
)
from gmfkit.numlin import sv
from gmfkit.vgf import (
    KyFanParams,
    VgfInstance,
    gauge_factor_sup,
    kyfan_norm,
    kyfan_vgf_identity,
    vgf_conj,
    vgf_eval,
    vgf_gauge_decomp,
    vgf_subdiff,
)

rng = np.random.default_rng(4)


def test_spectral_box_is_half_frobenius_squared():
    inst = VgfInstance(SpectralBox(0.0, 1.0, 3), 2)
    Y = rng.standard_normal((3, 2))
    val, V = vgf_eval(inst, Y)
    assert val == pytest.approx(0.5 * np.linalg.norm(Y) ** 2, rel=1e-10)
    # the witness attains the support value over the box
    assert 0.5 * np.sum(V * (Y @ Y.T)) == pytest.approx(val, rel=1e-8)


def test_trace_ball_is_half_spectral_squared():
    inst = VgfInstance(TraceBall(1.0, 3), 2)
    Y = rng.standard_normal((3, 2))
    val, _ = vgf_eval(inst, Y)
    assert val == pytest.approx(0.5 * sv(Y)[0] ** 2, rel=1e-10)


def test_ray_instance_is_indicator_of_zero():
    inst = VgfInstance(Ray(np.eye(2)), 1)
    assert vgf_eval(inst, np.zeros((2, 1)))[0] == 0.0
    assert vgf_eval(inst, np.array([[1.0], [0.0]]))[0] == np.inf


def test_rejects_empty_psd_slice():
    with pytest.raises(ValueError):
        VgfInstance(Singleton(-np.eye(2)), 1)


def test_homogeneity_degree_two():
    inst = VgfInstance(TraceBall(1.0, 3), 2)
    Y = rng.standard_normal((3, 2))
    base = vgf_eval(inst, Y)[0]
    for t in (0.5, 2.0, 7.0):
        assert vgf_eval(inst, t * Y)[0] == pytest.approx(t * t * base, rel=1e-10)


def test_conjugate_of_half_frobenius_squared_is_itself():
    # the spectral box penalty is self-conjugate
    inst = VgfInstance(SpectralBox(0.0, 1.0, 2), 2)
    X = rng.standard_normal((2, 2))
    val, _ = vgf_conj(inst, X)
    assert val == pytest.approx(0.5 * np.linalg.norm(X) ** 2, rel=1e-6)


def test_conjugate_trace_ball_is_half_nuclear_squared():
    inst = VgfInstance(TraceBall(1.0, 2), 2)
    X = rng.standard_normal((2, 2))
    val, _ = vgf_conj(inst, X)
    assert val == pytest.approx(0.5 * np.sum(sv(X)) ** 2, rel=1e-5)


def test_subdiff_fenchel_young():
    for S in (SpectralBox(0.0, 1.0, 3), TraceBall(1.0, 3), Fantope(2, 3)):
        inst = VgfInstance(S, 2)
        Y = rng.standard_normal((3, 2))
        X, V, gap = vgf_subdiff(inst, Y)
        assert abs(gap) <= 1e-8
        assert np.allclose(X, V @ Y, atol=1e-10)


def test_subdiff_requires_bounded_slice():
    inst = VgfInstance(Ray(np.eye(2)), 1)
    with pytest.raises(ValueError):
        vgf_subdiff(inst, np.zeros((2, 1)))


def test_gauge_decomposition_consistent():
    for S in (
        SpectralBox(0.0, 1.0, 2),
        TraceBall(1.0, 2),
        Fantope(1, 2),
        Singleton(np.eye(2)),
        ShiftedPSDCap(np.eye(2)),
    ):
        inst = VgfInstance(S, 2)
        Y = rng.standard_normal((2, 2))
        g, consistent, detail = vgf_gauge_decomp(inst, Y)
        assert consistent, detail
        phi = vgf_eval(inst, Y)[0]
        assert phi == pytest.approx(0.5 * g * g, rel=1e-8)


def test_gauge_factor_matches_closed_form():
    inst = VgfInstance(SpectralBox(0.0, 1.0, 3), 2)
    Y = rng.standard_normal((3, 2))
    assert gauge_factor_sup(inst, Y) == pytest.approx(np.linalg.norm(Y), rel=1e-10)


def test_kyfan_norm_values():
    X = np.diag([3.0, 4.0, 0.0])
    assert kyfan_norm(KyFanParams(1.0, 2), X) == pytest.approx(7.0)
    assert kyfan_norm(KyFanParams(2.0, 3), X) == pytest.approx(5.0)
    assert kyfan_norm(KyFanParams(np.inf, 1), X) == pytest.approx(4.0)


def test_kyfan_bad_k():
    with pytest.raises(ValueError):
        kyfan_norm(KyFanParams(2.0, 4), np.eye(3))


def test_kyfan_vgf_identity():
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        X = rng.standard_normal((n, m))
        for k in range(1, min(n, m) + 1):
            lhs, rhs, ok = kyfan_vgf_identity(KyFanParams(2.0, k), X)
            assert ok
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_kyfan_identity_requires_p_two():
    with pytest.raises(ValueError):
        kyfan_vgf_identity(KyFanParams(1.0, 1), np.eye(2))


def test_triangle_inequality_via_sqrt():
    # sqrt(2 Phi) is a norm for the trace ball variant
    inst = VgfInstance(TraceBall(1.0, 3), 2)
    Y1 = rng.standard_normal((3, 2))
    Y2 = rng.standard_normal((3, 2))
    f = lambda Y: np.sqrt(2.0 * vgf_eval(inst, Y)[0])
    assert f(Y1 + Y2) <= f(Y1) + f(Y2) + 1e-10


def test_vgf_conj_is_infinite_where_no_point_covers_the_range_of_x():
    inst = VgfInstance(Singleton(np.diag([1.0, 0.0])), 1)
    assert vgf_conj(inst, np.array([[0.0], [1.0]])) == (np.inf, None)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: KyFanParams(0.5, 1), "p >= 1"),
        (lambda: KyFanParams(2.0, 0), "k >= 1"),
        # a NaN p passed p < 1 and gave |X|^nan = 1.0; k = 1.5 failed later in a slice
        (lambda: KyFanParams(np.nan, 1), "p >= 1"),
        (lambda: KyFanParams(2.0, 1.5), "integer k"),
        # YY^T overflows: an overflow, not a domain verdict
        (lambda: vgf_subdiff(VgfInstance(Singleton(np.eye(2)), 1), np.array([[1e200], [0.0]])), "YY\\^T overflows"),
    ],
    ids=["kyfan-p", "kyfan-k", "kyfan-nan-p", "kyfan-fractional-k", "subdiff-outside-dom"],
)
def test_vgf_refuses_bad_data(call, match):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=match):
        call()


def test_an_overflowing_gram_function_is_refused_not_called_infinite():
    # Phi(Y) = |Y|^2 / 2 over Singleton(I) is finite for every Y
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="YY\\^T overflows"):
        vgf_eval(VgfInstance(Singleton(np.eye(2)), 1), np.array([[1e200], [0.0]]))
    # YY^T = 1e10 e1 e1^T is finite, but <1e300 I, YY^T> overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="Phi\\(Y\\) overflows"):
        vgf_subdiff(VgfInstance(Singleton(1e300 * np.eye(2)), 1), np.array([[1e5], [0.0]]))
    # an unbounded slice still gives Phi = +inf
    assert vgf_eval(VgfInstance(Ray(np.eye(2)), 1), np.array([[1.0], [0.0]]))[0] == np.inf


def test_a_hull_whose_cuts_run_out_leaves_phi_undecided_not_infinite(monkeypatch):
    # Phi(Y) = 1 at Y = (sqrt 2, 0) over hull{diag(2, -1), diag(0, 1), diag(-1, -1)},
    # at diag(1, 0) between the vertices; one cut does not reach it, and
    # the nan that says so is neither +inf nor a consistent decomposition
    monkeypatch.setattr(hset, "_MAX_CUTS", 1)
    inst = VgfInstance(Hull((np.diag([2.0, -1.0]), np.diag([0.0, 1.0]), np.diag([-1.0, -1.0]))), 1)
    Y = np.array([[np.sqrt(2.0)], [0.0]])
    phi, V = vgf_eval(inst, Y)
    assert np.isnan(phi) and V is None
    assert np.isnan(gauge_factor_sup(inst, Y))
    assert not vgf_gauge_decomp(inst, Y)[1]
    with pytest.raises(ValueError, match="undecided"):
        vgf_subdiff(inst, Y)
    monkeypatch.setattr(hset, "_MAX_CUTS", 50)
    assert vgf_eval(inst, Y)[0] == pytest.approx(1.0, abs=1e-12)
