"""The four benchmark workloads: seeded inputs, timed calls and checks.

Each `build_*` function returns a Workload whose `ops` form one pass of the fixed
input mix.  An Op's `run` is the timed call into gmfkit's public API;
it looks gmfkit functions up at call time, so the tracer's wrappers see
it.  `check` runs after the timed loop, against an oracle computed by
`prepare()` before the loop or, for closed forms, by `check` itself, so
neither is timed.  `warmup` holds ops on problems disjoint from the
timed ones: gmfkit's module-level candidate cache keys on (A, B, h), and
warm-up problems differ in m or in the set, so the cache fills only from
timed inputs (the timed loop also empties it before every pass).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import gmfkit as gk
import gmfkit.cli

import oracles
from oracles import OracleError

REL_TOL = 1e-6  # gmfkit's default conj_rel
PATH_TOL = 1e-4  # solver vs proximal reference, as acceptance criterion 12


@dataclass
class Outcome:
    ok: bool
    err: float | None = None  # relative error against the oracle
    undecided: int = 0  # verdicts reported "undecided"
    decisions: int = 0  # verdicts reported in total
    cause: str | None = None  # why the op failed


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    prepare: Callable[[], None] = lambda: None
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list  # one pass of the timed input mix
    warmup: list


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _with_svals(rng, n, m, s):
    """An n x m matrix with singular values s and random singular vectors."""
    k = min(n, m)
    return (_orthogonal(rng, n)[:, :k] * np.asarray(s)[:k]) @ _orthogonal(rng, m)[:, :k].T


def _value_check(want):
    """Check a float output against want, or against want() if callable."""

    def check(out):
        err = oracles.rel_err(float(out), want() if callable(want) else want)
        return Outcome(err <= REL_TOL, err, cause=None if err <= REL_TOL else "oracle")

    return check


# ---------------------------------------------------------------------------
# pgrid: eval_p, vgf_conj and vgf_eval over spectral sets, A = 0


def _pgrid_sets(n):
    """(set, p oracle, Phi oracle) for the box, the ball and each Fantope k < n."""
    out = [
        (gk.SpectralBox(0.0, 1.0, n), oracles.p_spectral_box01, oracles.phi_spectral_box01),
        (
            gk.TraceBall(1.0, n),
            lambda s: oracles.p_trace_ball(s, 1.0),
            lambda s: oracles.phi_trace_ball(s, 1.0),
        ),
    ]
    for k in range(1, n):
        out.append(
            (
                gk.Fantope(k, n),
                lambda s, k=k: oracles.p_fantope(s, k),
                lambda s, k=k: oracles.phi_fantope(s, k),
            )
        )
    return out


def _sval_grid(axis, k):
    """Every nonincreasing k-tuple of axis values, zeros included."""
    return [tuple(sorted(c, reverse=True)) for c in itertools.combinations_with_replacement(axis, k)]


def _pgrid_ops(rng, ms, axis, rotations):
    """Per set, m and singular-value tuple: `rotations` calls each of
    eval_p and vgf_conj on matrices with random singular vectors, and
    one vgf_eval.  The descent loop's cost depends on the singular
    vectors and is heavy-tailed (a rare input takes 50x the median), so
    several rotations per tuple keep the per-seed mix comparable."""
    ops = []
    for n in (2, 3):
        for S, p_of, phi_of in _pgrid_sets(n):
            inst = {m: gk.VgfInstance(S, m) for m in ms}
            for m in ms:
                pd = gk.ProblemData(np.zeros((1, n)), np.zeros((1, m)))
                prob = gk.InfProjProblem(pd, gk.Indicator(S))
                for s in _sval_grid(axis, min(n, m)):
                    s = np.array(s, dtype=float)
                    p_check = _value_check(lambda s=s, f=p_of: f(s))
                    for _ in range(rotations):
                        X1, X2 = (_with_svals(rng, n, m, s) for _ in range(2))
                        ops.append(Op("eval_p", lambda prob=prob, X=X1: gk.eval_p(prob, X).value, p_check))
                        ops.append(Op("vgf_conj", lambda i=inst[m], X=X2: gk.vgf_conj(i, X)[0], p_check))
                    Y = _with_svals(rng, n, m, s)
                    phi_check = _value_check(lambda s=s, f=phi_of: f(s))
                    ops.append(Op("vgf_eval", lambda i=inst[m], Y=Y: gk.vgf_eval(i, Y)[0], phi_check))
    return ops


def build_pgrid(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = _pgrid_ops(rng, ms=(1, 2), axis=(0.0, 0.5, 1.5, 3.0), rotations=2)
    ops = [ops[i] for i in rng.permutation(len(ops))]
    # m = 3 gives every warm-up problem its own cache key
    warm = _pgrid_ops(np.random.default_rng([seed, 2]), ms=(3,), axis=(0.0, 1.0), rotations=1)
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# gmf_scale: the GMF core at growing n, where LAPACK dominates


def _gmf_scale_ops(rng, mix):
    ops = []
    for n, count in mix.items():
        ell, m = max(1, n // 4), max(1, n // 2)
        for _ in range(count):
            A = rng.standard_normal((ell, n))
            B = A @ rng.standard_normal((n, m))
            pd = gk.ProblemData(A, B)
            G = rng.standard_normal((n, n))
            V = G @ G.T / n + 0.5 * np.eye(n)
            X = rng.standard_normal((n, m))
            # a well-conditioned weight U = L L^T / 2 (eigenvalues in [1/8, 9/8])
            L = _orthogonal(rng, n) * rng.uniform(0.5, 1.5, n)
            pd0 = gk.ProblemData(np.zeros((1, n)), np.zeros((1, m)))
            prob = gk.InfProjProblem(pd0, gk.Linear(0.5 * L @ L.T))
            ops.extend(_gmf_scale_instance(pd, X, V, prob, L))
    return ops


def _gmf_scale_instance(pd, X, V, prob, L):
    ref = {}

    def prepare():
        if ref:
            return
        ev = gk.eval_gmf_oracle(pd, X, V)
        Y = ev.witness_Y
        # the maximizer of <Y, X> - <YY^T, V>/2 over AY = B: feasible and
        # stationary on ker A
        feas = np.linalg.norm(pd.A @ Y - pd.B) / (1.0 + np.linalg.norm(pd.B))
        stat = np.linalg.norm(pd.N.T @ (X - V @ Y)) / (1.0 + np.linalg.norm(X))
        if max(feas, stat) > 1e-9:
            raise OracleError(f"GMF oracle residuals {feas:.1e}, {stat:.1e}")
        ref.update(phi=ev.value, Y=Y, p=oracles.weighted_nuclear(L, X))

    def check_grad(out):
        Y, GV = out
        Yo = ref["Y"]
        err = float(np.linalg.norm(Y - Yo)) / (1.0 + float(np.linalg.norm(Yo)))
        gv_err = float(np.linalg.norm(GV + 0.5 * Yo @ Yo.T)) / (1.0 + float(np.linalg.norm(Yo)) ** 2)
        err = max(err, gv_err)
        return Outcome(err <= REL_TOL, err, cause=None if err <= REL_TOL else "oracle")

    def check_dual(out):
        value, status = out
        oc = check_p(value)
        oc.decisions, oc.undecided = 1, int(status == "undecided")
        if status != "exact":
            oc.ok, oc.cause = False, f"status {status}"
        return oc

    check_p = _value_check(lambda: ref["p"])
    return [
        Op("eval_gmf", lambda: gk.eval_gmf(pd, X, V).value, _value_check(lambda: ref["phi"]), prepare),
        Op("grad_gmf", lambda: gk.grad_gmf(pd, X, V), check_grad, prepare),
        Op("eval_p", lambda: gk.eval_p(prob, X).value, check_p, prepare),
        Op("dual_value", lambda: gk.dual_value(prob, X)[::2], check_dual, prepare),
    ]


# instances per size; the extra n = 20 ones put the median latency inside
# that size's group instead of on the jump between two sizes.  About 3%
# of instances draw an eval_p whose fast path bails into a descent that
# takes 0.15-0.9 s; 56 instances keep the seed-to-seed swing in how many
# such inputs a mix holds to a few percent of ops_per_s.
GMF_MIX = {5: 12, 20: 20, 40: 12, 60: 12}


def build_gmf_scale(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = _gmf_scale_ops(rng, GMF_MIX)
    ops = [ops[i] for i in rng.permutation(len(ops))]
    warm = _gmf_scale_ops(np.random.default_rng([seed, 4]), {6: 1, 24: 1})
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# solve_path: the smoothed solver on seeded rank-2 completions


LAM = 0.4


def _completion(rng, n):
    M = rng.standard_normal((n, 2)) @ rng.standard_normal((2, n))
    mask = rng.random((n, n)) < 0.8
    fit = gk.FitSpec.from_mask(mask, M)
    pd = gk.ProblemData(np.zeros((1, n)), np.zeros((1, n)))
    return fit, pd, 0.5 * LAM * LAM * np.eye(n)


def _solve_op(fit, pd, U, n):
    ref = {}

    def run():
        tr = gk.solve_smooth(fit, pd, U)
        F, p, gap = gk.objective_certificate(fit, U, tr.final_X, tr.final_V)
        return tr.final_X, tr.final_V, F, gap, tr.status

    def prepare():
        if ref:
            return
        Xr = gk.solve_prox_reference(fit, np.eye(n), LAM)
        # fixed point of the proximal-gradient map (step 1: a mask has norm 1)
        G = (fit.A_op.T @ (fit.A_op @ Xr.ravel(order="F") - fit.b)).reshape((n, n), order="F")
        U_, s, Vt = np.linalg.svd(Xr - G)
        resid = np.linalg.norm(Xr - (U_ * np.maximum(s - LAM, 0.0)) @ Vt)
        if resid > 1e-6 * (1.0 + np.linalg.norm(Xr)):
            raise OracleError(f"proximal reference residual {resid:.1e}")
        ref["X"] = Xr

    def check(out):
        X, _, F, gap, status = out
        Xr = ref["X"]
        err = float(np.linalg.norm(X - Xr)) / (1.0 + float(np.linalg.norm(Xr)))
        if status != "Converged":
            return Outcome(False, err, cause=f"status {status}")
        if err > PATH_TOL:
            return Outcome(False, err, cause="oracle")
        if gap < -REL_TOL * (1.0 + abs(F)):
            return Outcome(False, err, cause="certificate gap")
        return Outcome(True, err)

    # the default-thread diagnostic re-runs the certificate on the output
    return Op("solve_smooth+certificate", run, check, prepare, {"fit": fit, "U": U})


# instances per size.  Solve time varies ~17% between instances of one
# size (L-BFGS-B evaluation counts).  With 28 inputs the median and the
# tail (10 inputs beyond it, p64) both fall inside the n = 16 group, not
# on a jump between sizes.  One pass takes 8-11 s on one core, so a 20 s
# run times each input twice even when the machine is busy.
SOLVE_MIX = {8: 10, 16: 12, 24: 4, 32: 2}


def build_solve_path(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 5])
    ops = [_solve_op(*_completion(rng, n), n) for n, k in SOLVE_MIX.items() for _ in range(k)]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    warm_rng = np.random.default_rng([seed, 6])
    warm = [_solve_op(*_completion(warm_rng, 6), 6)]
    return Workload(ops, warm)


# ---------------------------------------------------------------------------
# cq_sweep: the criterion-13 problem family through the CLI, in process

_VARIANTS = ("singleton", "spectral_box", "trace_ball", "fantope", "hull", "ray", "psd_cap")
_ORDER = {"fails": 0, "holds": 1}


def _rand_sym(rng, n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def _rand_set(rng, variant, n):
    """One set of the given variant, drawn as acceptance criterion 13 does."""
    if variant == "singleton":
        M = rng.standard_normal((n, n))
        return gk.Singleton(M @ M.T)
    if variant == "spectral_box":
        lo = float(rng.choice([0.0, -0.5]))
        return gk.SpectralBox(lo, float(rng.uniform(0.5, 2.0)), n)
    if variant == "trace_ball":
        return gk.TraceBall(float(rng.uniform(0.5, 2.0)), n)
    if variant == "fantope":
        return gk.Fantope(int(rng.integers(1, n + 1)), n)
    if variant == "hull":
        # without the zero vertex a hull often has no PSD vertex, and
        # gmfkit cannot take its support over the PSD cone: it raises
        pts = [_rand_sym(rng, n) for _ in range(int(rng.integers(2, 4)))]
        if rng.random() < 0.5:
            pts[0] = np.zeros((n, n))
        return gk.Hull(tuple(pts))
    if variant == "ray":
        return gk.Ray(_rand_sym(rng, n))
    M = rng.standard_normal((n, n))
    return gk.ShiftedPSDCap(M @ M.T + 0.1 * np.eye(n))


def _write_csv(path, M):
    np.savetxt(path, np.atleast_2d(M), delimiter=",", fmt="%.17g")


def _null_space(A):
    _, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 0.0))) if np.any(A) else 0
    return Vt[rank:].T


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gk.cli.main(argv)
    return code, out.getvalue()


def _cq_op(rng, workdir, idx, with_A, h_kind, variant):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    if with_A:
        ell = int(rng.integers(1, 3))
        A = rng.standard_normal((ell, n))
        B = A @ rng.standard_normal((n, m))
    else:
        A, B = np.zeros((1, n)), np.zeros((1, m))
    if h_kind == "linear":
        M = rng.standard_normal((n, n))
        h = gk.Linear(M @ M.T if rng.random() < 0.7 else 0.5 * (M + M.T))
    elif h_kind == "indicator":
        h = gk.Indicator(_rand_set(rng, variant, n))
    else:
        h = gk.Support(_rand_set(rng, variant, n))
    # a Y with AY = B: Y0 = A^+ B plus a kernel component
    N = _null_space(A)
    Y = np.linalg.pinv(A) @ B + N @ rng.standard_normal((N.shape[1], m))
    if np.linalg.norm(A @ Y - B) > 1e-9 * (1.0 + np.linalg.norm(B)):
        raise OracleError("conjugate point Y is not feasible")
    bundle = os.path.join(workdir, f"cq{idx:04d}.json")
    ypath = os.path.join(workdir, f"cq{idx:04d}_Y.csv")
    with open(bundle, "w") as fh:
        json.dump({"A": A.tolist(), "B": B.tolist(), "h": gk.hspec_to_json(h)}, fh)
    _write_csv(ypath, Y)
    plain_indicator = h_kind == "indicator" and not with_A

    def run():
        return _cli(["cq-report", "--bundle", bundle]), _cli(
            ["conjugate", "--bundle", bundle, "--Y", ypath]
        )

    def check(out):
        (code_r, text_r), (code_c, text_c) = out
        for cmd, code in (("cq-report", code_r), ("conjugate", code_c)):
            if code not in (0, 2):  # 1 is an error; the report is not written
                return Outcome(False, cause=f"{cmd} exit {code}")
        rep = json.loads(text_r)["outputs"]
        conj = json.loads(text_c)["outputs"]
        verdicts = [rep[k] for k in ("pcq", "spcq", "bpcq", "ccq", "sccq")]
        undecided = verdicts.count("undecided") + int(conj["status"] != "exact")
        oc = Outcome(True, undecided=undecided, decisions=len(verdicts) + 1)
        if code_r != (2 if "undecided" in verdicts else 0):
            oc.ok, oc.cause = False, f"cq-report exit {code_r}"
        elif code_c != (0 if conj["status"] == "exact" else 2):
            oc.ok, oc.cause = False, f"conjugate exit {code_c}"
        chain = [rep["bpcq"], rep["spcq"], rep["pcq"]]
        for a, b in zip(chain, chain[1:]):
            if a in _ORDER and b in _ORDER and _ORDER[a] > _ORDER[b]:
                oc.ok, oc.cause = False, "implication chain"
        decided = {_ORDER[v] for v in chain if v in _ORDER}
        if plain_indicator and len(decided) > 1:
            oc.ok, oc.cause = False, "indicator verdicts disagree"
        return oc

    return Op("cq-report+conjugate", run, check)


def _cq_cells():
    cells = [("linear", None)]
    cells += [(kind, v) for kind in ("indicator", "support") for v in _VARIANTS]
    return [(with_A, kind, v) for with_A in (False, True) for kind, v in cells]


def build_cq_sweep(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 7])
    ops = []
    # two of each cell: the 10 slowest inputs, which set the tail, then
    # include inputs from the bulk and not only the slow, seed-dependent
    # SLSQP hull problems (four of each put the tail among those)
    for rep in range(2):
        for with_A, kind, v in _cq_cells():
            ops.append(_cq_op(rng, workdir, len(ops), with_A, kind, v))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    warm_rng = np.random.default_rng([seed, 8])
    warm = [
        _cq_op(warm_rng, workdir, 1000 + i, with_A, kind, v)
        for i, (with_A, kind, v) in enumerate(_cq_cells()[::4])
    ]
    return Workload(ops, warm)


BUILD = {
    "pgrid": build_pgrid,
    "cq_sweep": build_cq_sweep,
    "gmf_scale": build_gmf_scale,
    "solve_path": build_solve_path,
}
