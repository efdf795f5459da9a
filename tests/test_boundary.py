"""The validation boundary: a public function checks each matrix it is
given once (shape, finiteness, symmetry), and the gmf, set and h rules
behind it run on trusted arrays without checking them again."""

import numpy as np
import pytest

from gmfkit.gmf import ProblemData, eval_gmf, eval_gmf_oracle, in_omega
from gmfkit.hset import (
    Hull,
    Indicator,
    Linear,
    ShiftedPSDCap,
    SpectralBox,
    Support,
    TraceBall,
    h_conj,
    h_eval,
)
from gmfkit.infproj import (
    InfProjProblem,
    _objective,
    dom_p_member,
    dual_gap,
    dual_value,
    eval_p,
    eval_p_conj,
    subdiff_p_witness,
    xi_member,
)
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


def unconstrained(n, m):
    return ProblemData(np.zeros((1, n)), np.zeros((1, m)))


# ---------------------------------------------------------------------------
# each matrix is checked once, where it enters


def test_a_descent_objective_checks_nothing(sym_calls):
    # eval_gmf, h_eval and the set rule each checked the same V: 3 calls
    prob = InfProjProblem(unconstrained(2, 1), Support(Hull((np.eye(2), np.diag([2.0, 0.5])))))
    sym_calls.clear()
    F, ge, _ = _objective(prob, np.array([[1.0], [2.0]]), np.diag([1.0, 3.0]))
    assert np.isfinite(F) and np.isfinite(ge.value)
    assert sym_calls == []


def test_vgf_eval_checks_no_symmetric_matrix(sym_calls):
    inst = VgfInstance(TraceBall(1.0, 3), 2)
    sym_calls.clear()
    vgf_eval(inst, np.ones((3, 2)))
    assert sym_calls == []


@pytest.mark.parametrize("wrap", [Indicator, Support])
def test_h_eval_checks_its_argument_once(sym_calls, wrap):
    h = wrap(Hull((np.eye(2), np.diag([2.0, 0.5]))))
    sym_calls.clear()
    h_eval(h, np.eye(2))
    assert sym_calls == [(2, 2)]


def test_conjugate_of_linear_h_checks_its_argument_once(sym_calls):
    # h_conj built Indicator(Singleton(U)): U and W were checked again
    h = Linear(np.diag([1.0, 2.0]))
    sym_calls.clear()
    assert h_conj(h, np.diag([1.0, 2.0])) == 0.0
    assert h_conj(h, np.eye(2)) == np.inf
    assert sym_calls == [(2, 2), (2, 2)]


# ---------------------------------------------------------------------------
# a wrong shape or a non-finite entry is rejected, not broadcast or rounded


def _public_calls():
    """(name, call(M)) for each public function of a 2 x 2-valued X or Y,
    each on a problem whose closed form or descent would answer."""
    b2 = ProblemData(np.array([[1.0, 0.0]]), np.array([[1.0, 2.0]]))
    linear = InfProjProblem(b2, Linear(np.diag([0.5, 1.0])))
    free = unconstrained(2, 2)
    loewner = InfProjProblem(free, Indicator(ShiftedPSDCap(np.eye(2))))
    descent = InfProjProblem(free, Indicator(Hull((np.eye(2), 2.0 * np.eye(2)))))
    weighted = InfProjProblem(free, Linear(np.eye(2)))
    inst = VgfInstance(SpectralBox(0.0, 1.0, 2), 2)
    return [
        ("eval_gmf", lambda M: eval_gmf(b2, M, np.eye(2))),
        ("eval_gmf_oracle", lambda M: eval_gmf_oracle(b2, M, np.eye(2))),
        ("in_omega", lambda M: in_omega(b2, M, -np.eye(2))),
        ("xi_member", lambda M: xi_member(linear, M)),
        ("eval_p_conj", lambda M: eval_p_conj(linear, M)),
        ("eval_p loewner", lambda M: eval_p(loewner, M)),
        ("eval_p descent", lambda M: eval_p(descent, M, max_iter=5)),
        ("eval_p weighted_nuclear", lambda M: eval_p(weighted, M)),
        ("dual_value", lambda M: dual_value(weighted, M)),
        ("dual_gap", lambda M: dual_gap(weighted, M)),
        ("subdiff_p_witness", lambda M: subdiff_p_witness(weighted, M)),
        ("dom_p_member", lambda M: dom_p_member(descent, M)),
        ("vgf_eval", lambda M: vgf_eval(inst, M)),
        ("vgf_conj", lambda M: vgf_conj(inst, M)),
        ("vgf_subdiff", lambda M: vgf_subdiff(inst, M)),
        ("gauge_factor_sup", lambda M: gauge_factor_sup(inst, M)),
        ("vgf_gauge_decomp", lambda M: vgf_gauge_decomp(inst, M)),
        ("kyfan_norm", lambda M: kyfan_norm(KyFanParams(2.0, 1), M)),
        ("kyfan_vgf_identity", lambda M: kyfan_vgf_identity(KyFanParams(2.0, 1), M)),
    ]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name, call", _public_calls(), ids=[name for name, _ in _public_calls()])
def test_a_non_finite_entry_is_rejected(name, call, bad):
    # eval_gmf returned +inf, eval_p "infeasible" (loewner, descent) or
    # "unbounded" (weighted_nuclear), eval_p_conj (inf, "exact"), kyfan_norm nan
    M = np.array([[1.0, 0.5], [0.5, 2.0]])
    call(M)  # the same call on finite entries answers
    M[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        call(M)


@pytest.mark.parametrize("name, call", _public_calls()[:-2], ids=[name for name, _ in _public_calls()[:-2]])
def test_a_wrong_width_is_rejected(name, call):
    # A Y - B broadcast a 2 x 1 Y against a B of width 2: xi_member
    # returned (True, "exact"), in_omega True
    with pytest.raises(ValueError, match="must be 2x2"):
        call(np.array([[1.0], [0.0]]))
