import ast
import inspect
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfkit.gmf import ProblemData
from gmfkit.numlin import (
    DEFAULT_TOL,
    Tolerances,
    max_eig,
    min_eig,
    psd_sqrt,
    sv,
    sym,
    sym_eig,
)

rng = np.random.default_rng(0)


def rand_sym(n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def test_sym_accepts_and_rejects():
    S = rand_sym(3)
    assert np.allclose(sym(S), S)
    with pytest.raises(ValueError):
        sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sym_rejects_non_finite_entries(bad, recwarn):
    # max|S - S^T| > tol is False for NaN, so a NaN matrix passed as symmetric
    for i, j in ((0, 0), (0, 1)):
        S = np.eye(2)
        S[i, j] = S[j, i] = bad
        with pytest.raises(ValueError, match="finite"):
            sym(S)
    assert not recwarn.list


def test_sym_symmetrizes_small_noise():
    S = rand_sym(3)
    noisy = S + 1e-12 * np.triu(np.ones((3, 3)), 1)
    out = sym(noisy)
    assert np.allclose(out, out.T)


def _problem(A, m=1):
    return ProblemData(A, np.zeros((np.atleast_2d(A).shape[0], m)))


def test_problem_data_pinv_is_the_inverse_of_an_invertible_a():
    M = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    assert np.allclose(_problem(M).A_pinv, np.linalg.inv(M), atol=1e-10)


def test_problem_data_pinv_of_a_rank_deficient_a():
    u = rng.standard_normal((3, 1))
    M = u @ u.T
    P = _problem(M).A_pinv
    assert np.allclose(M @ P @ M, M, atol=1e-10)
    assert np.allclose(P @ M @ P, P, atol=1e-10)
    # A = 0 factors nothing: A^+ = 0 and N = I
    pd = _problem(np.zeros((2, 3)))
    assert np.array_equal(pd.A_pinv, np.zeros((3, 2))) and np.array_equal(pd.N, np.eye(3))


def test_problem_data_rejects_b_off_the_range_of_a():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    ProblemData(A, np.array([[2.0], [0.0]]))
    with pytest.raises(ValueError, match="rge B"):
        ProblemData(A, np.array([[0.0], [1.0]]))


def test_problem_data_kernel_basis_orthonormal():
    A = np.array([[1.0, 1.0, 0.0]])
    N = _problem(A).N
    assert N.shape == (3, 2)
    assert np.allclose(N.T @ N, np.eye(2), atol=1e-12)
    assert np.allclose(A @ N, 0.0, atol=1e-12)


def test_problem_data_kernel_basis_empty_for_invertible_a():
    pd = _problem(np.eye(2))
    assert pd.N.shape == (2, 0) and pd.ker_trivial


def test_problem_data_factors_a_once(linalg_calls):
    # one SVD of A gives rank, N and A^+, also at A = 0
    ProblemData(rng.standard_normal((2, 4)), np.zeros((2, 1)))
    assert linalg_calls == {"svd": 1}
    linalg_calls.clear()
    ProblemData(np.zeros((1, 3)), np.zeros((1, 2)))
    assert linalg_calls == {"svd": 1}


def test_problem_data_factors_no_matrix_twice(linalg_inputs):
    from gmfkit.selftest import criterion_13_problems

    pairs = [(prob.pd.A, prob.pd.B) for prob in criterion_13_problems(0)]
    for A, B in pairs:
        linalg_inputs.clear()
        ProblemData(A, B)
        assert linalg_inputs.repeats() == []


def test_ker_projector_idempotent():
    A = rng.standard_normal((2, 5))
    P = ProblemData(A, np.zeros((2, 1))).P
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(A @ P, 0.0, atol=1e-10)


def test_eig_helpers_agree_with_numpy():
    S = rand_sym(5)
    w = np.linalg.eigvalsh(S)
    assert min_eig(S) == pytest.approx(w[0], abs=1e-12)
    assert max_eig(S) == pytest.approx(w[-1], abs=1e-12)
    lam, Q = sym_eig(S)
    assert np.allclose(Q @ np.diag(lam) @ Q.T, S, atol=1e-10)


def test_sv_sorted_descending():
    X = rng.standard_normal((4, 3))
    s = sv(X)
    assert np.all(np.diff(s) <= 0)
    assert np.allclose(s, np.linalg.svd(X, compute_uv=False))


def test_psd_sqrt_squares_back():
    M = rng.standard_normal((4, 4))
    S = M @ M.T
    R = psd_sqrt(S)
    assert np.allclose(R @ R, S, atol=1e-8)
    assert min_eig(R) >= -1e-12


def test_tolerances_immutable_defaults():
    t = Tolerances()
    assert t.rank_rel == DEFAULT_TOL.rank_rel
    assert t.psd_abs > 0 and t.feas_abs > 0 and t.conj_rel > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_psd_sqrt_property(n, seed):
    g = np.random.default_rng(seed)
    M = g.standard_normal((n, n))
    S = M @ M.T
    R = psd_sqrt(S)
    assert np.allclose(R, R.T, atol=1e-10)
    assert np.allclose(R @ R, S, atol=1e-7 * (1 + np.linalg.norm(S)))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_problem_data_pinv_penrose_property(nr, nc, seed):
    g = np.random.default_rng(seed)
    M = g.standard_normal((nr, nc))
    P = _problem(M).A_pinv
    assert np.allclose(M @ P @ M, M, atol=1e-8)
    assert np.allclose(P @ M @ P, P, atol=1e-8)
    assert np.allclose(M @ P, (M @ P).T, atol=1e-8) and np.allclose(P @ M, (P @ M).T, atol=1e-8)


def test_tolerances_dict_roundtrip():
    tol = Tolerances(rank_rel=1e-8, psd_abs=1e-7, feas_abs=1e-6, conj_rel=1e-5)
    assert Tolerances.from_dict(tol.to_dict()) == tol
    assert list(tol.to_dict()) == ["rank_rel", "psd_abs", "feas_abs", "conj_rel"]
    # missing or None keys take the defaults; other keys are ignored
    assert Tolerances.from_dict({}) == DEFAULT_TOL
    partial = Tolerances.from_dict({"psd_abs": "1e-7", "feas_abs": None, "other": 1})
    assert partial == Tolerances(psd_abs=1e-7)
    with pytest.raises(ValueError):
        Tolerances.from_dict({"conj_rel": 0.5})


def _unused_imports(path):
    """Names a module imports but never reads (AST scan)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_the_package():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmfkit"
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = [u for p in modules for u in _unused_imports(p)]
    assert unused == []


_SET_CLASSES = {
    "ConvexSetSpec",
    "Singleton",
    "SpectralSet",
    "SpectralBox",
    "TraceBall",
    "Fantope",
    "Hull",
    "Ray",
    "ShiftedPSDCap",
    "Halfspace",
}
# where infproj may still test a set class: the choice of the spectral
# rule, the per-variant descent starts and InfProjProblem's one rewrite
# of Support(Singleton) as Linear
_INFPROJ_ALLOWED = {
    "_rule": {"SpectralSet"},
    "_start_candidates": {"Hull", "ShiftedPSDCap"},
    "__post_init__": {"Singleton"},
}
_H_CLASSES = {"Linear", "Indicator", "Support", "ndarray"}
# where infproj may still test an h class: the branches whose formula
# differs by h
_INFPROJ_H_ALLOWED = {
    "_spectral_path": {"Support"},
    "_pencil_factors": {"Support"},
    "_eval_p_conj": {"Indicator"},
    "_dual_at": {"Linear"},
    "cq_report": {"Indicator"},
}


def _set_class_isinstance(path, classes=_SET_CLASSES):
    """(enclosing function, class) of each isinstance test on one of classes
    (a set class unless told otherwise)."""
    tree = ast.parse(path.read_text())
    hits = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
            ):
                continue
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            hits.extend((fn.name, name) for name in sorted(names & classes))
    return hits


def test_set_rules_do_not_dispatch_on_the_set_class():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmfkit"
    assert _set_class_isinstance(src / "hset.py") == []
    hits = _set_class_isinstance(src / "infproj.py")
    assert [(f, c) for f, c in hits if c not in _INFPROJ_ALLOWED.get(f, ())] == []
    assert len(hits) <= 4


def test_infproj_tests_the_h_class_only_where_the_formula_differs():
    from gmfkit.infproj import _Slope
    from gmfkit.selftest import criterion_13_problems

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmfkit"
    hits = _set_class_isinstance(src / "infproj.py", _H_CLASSES)
    assert [(f, c) for f, c in hits if c not in _INFPROJ_H_ALLOWED.get(f, ())] == []
    assert len(hits) <= 6
    # _linear has one type: the ray or the slope's factors, or None
    lins = [prob._linear for prob in criterion_13_problems(0)]
    assert all(lin is None or type(lin) is _Slope for lin in lins)
    assert any(lin is not None and lin.ray is not None for lin in lins)
    assert any(lin is not None and lin.ray is None for lin in lins)


def test_every_psd_test_compares_with_the_unscaled_floor():
    # an eigenvalue is nonnegative from -psd_abs, positive above psd_abs and
    # zero in between, whatever the size of the matrix; constructors, which
    # have no problem, read the default tolerances, and every rule the
    # tolerances it is passed
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmfkit"
    for name in ("hset.py", "infproj.py", "gmf.py", "smooth.py"):
        text = (src / name).read_text()
        assert not re.search(r"psd_abs\s*\*|\*\s*[\w.]*psd_abs", text), name
        readers = {
            fn.name
            for fn in ast.walk(ast.parse(text))
            if isinstance(fn, ast.FunctionDef)
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id == "DEFAULT_TOL"
        }
        assert readers <= {"__init__", "__post_init__"}, name


def test_only_problem_data_decides_the_regime_of_a():
    # A = 0 and ker A = {0} are read off ProblemData.unconstrained and
    # .ker_trivial, never re-derived from N's width or A's entries
    free, full_rank = ProblemData(np.zeros((1, 3)), np.zeros((1, 2))), ProblemData(np.eye(3), np.ones((3, 2)))
    assert free.unconstrained and not free.ker_trivial
    assert full_rank.ker_trivial and not full_rank.unconstrained
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmfkit"
    hits = []
    for path in sorted(src.glob("*.py")):
        if path.name == "gmf.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            n_width = (
                isinstance(node, ast.Attribute)
                and node.attr == "shape"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "N"
            )
            any_of_a = (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "np.any"
                and any(isinstance(a, ast.Attribute) and a.attr == "A" for a in node.args)
            )
            if n_width or any_of_a:
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def _trailing_name(node):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_only_problem_data_forms_the_residual_ay_minus_b():
    # AY = B is one rule, ProblemData.solves; no other module writes A @ Y - B
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmfkit"
    hits = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                pairs = ((node.left, node.right), (node.right, node.left))
                if any(
                    isinstance(p, ast.BinOp)
                    and isinstance(p.op, ast.MatMult)
                    and _trailing_name(p.left) == "A"
                    and _trailing_name(q) == "B"
                    for p, q in pairs
                ):
                    hits.append(path.name)
    assert hits == ["gmf.py"]


def _function_def(path, name):
    return next(
        fn for fn in ast.walk(ast.parse(path.read_text())) if isinstance(fn, ast.FunctionDef) and fn.name == name
    )


@pytest.mark.parametrize("name", ["cq_report", "xi_member"])
def test_cq_rules_read_the_two_domains_only(name):
    # every verdict is one rule over h.dom and h.conj_dom: no per-variant
    # branch and no read of a ray's direction or boundedness
    path = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmfkit" / "infproj.py"
    assert [c for f, c in _set_class_isinstance(path) if f == name] == []
    fn = _function_def(path, name)
    reads = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert not reads & {"D", "bounded"}


def test_criterion_13_leaves_fewer_verdicts_undecided():
    # seed 0 left 74/74/82/10/7 undecided (pcq/spcq/sccq/ccq/bpcq) when each
    # CQ was written out per h kind and A shape
    from gmfkit.infproj import cq_report
    from gmfkit.selftest import criterion_13_problems

    counts = dict.fromkeys(("pcq", "spcq", "sccq", "ccq", "bpcq"), 0)
    for prob in criterion_13_problems(0):
        rep = cq_report(prob)
        for k in counts:
            counts[k] += getattr(rep, k) == "undecided"
    assert counts["ccq"] == counts["bpcq"] == 0
    assert counts["pcq"] < 74 and counts["spcq"] < 74 and counts["sccq"] < 82


def test_problem_objects_are_the_only_source_of_tolerances():
    import gmfkit.cli
    import gmfkit.gmf
    import gmfkit.hset
    import gmfkit.infproj
    import gmfkit.smooth
    import gmfkit.vgf

    problem_types = {"ProblemData", "InfProjProblem"}
    checked = []
    for mod in (gmfkit.gmf, gmfkit.infproj, gmfkit.smooth):
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            params = inspect.signature(fn).parameters
            if any(p.annotation in problem_types for p in params.values()):
                checked.append(name)
                assert "tol" not in params, name
    for cls in gmfkit.hset._SETS.values():
        assert list(inspect.signature(cls.inside_KA).parameters) == ["self", "pd"]
    assert {"eval_gmf", "eval_p", "cq_report", "solve_smooth"} <= set(checked)
    # the start point, mu floor, seed and iteration caps no caller set
    assert list(inspect.signature(gmfkit.infproj.dom_p_member).parameters) == ["prob", "X"]
    assert list(inspect.signature(gmfkit.infproj.dual_value).parameters) == ["prob", "X"]
    assert list(inspect.signature(gmfkit.vgf.vgf_conj).parameters) == ["inst", "X"]
    assert list(inspect.signature(gmfkit.smooth.solve_smooth).parameters) == [
        "fit",
        "pd",
        "Ubar",
        "max_iter",
    ]
    # entry points that build their own problem: the bundle's "tol" block,
    # or the defaults
    assert list(inspect.signature(gmfkit.cli.parse_bundle).parameters) == ["path"]
    assert list(inspect.signature(gmfkit.smooth.objective_certificate).parameters) == [
        "fit",
        "Ubar",
        "X",
        "V",
    ]
    assert list(inspect.signature(gmfkit.vgf.kyfan_vgf_identity).parameters) == ["params", "X"]


@pytest.mark.parametrize(
    "S, n",
    [(np.ones((2, 3)), None), (np.ones(3), None), (np.ones((2, 2, 2)), None), (np.eye(2), 3)],
    ids=["rectangular", "vector", "3-d", "wrong-n"],
)
def test_sym_refuses_a_matrix_of_the_wrong_shape(S, n):
    with pytest.raises(ValueError, match="expected a"):
        sym(S, DEFAULT_TOL, n)
