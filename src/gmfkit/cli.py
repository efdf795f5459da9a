"""Command line surface: evaluate, verify, report, and solve.

Matrices travel as headerless CSV, problems as JSON bundles
{"A": [[...]], "B": [[...]], "h": {"kind": ..., "set": {...}}, "tol": {...}}.
Every run emits a RunReport as JSON (stdout or --out) whose content is
deterministic given inputs and seed, wall time aside.  Exit codes:
0 success, 1 error (usage errors included), 2 undecided outcome.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .gmf import ProblemData, eval_gmf, eval_gmf_oracle
from .hset import Indicator, hspec_from_json
from .infproj import (
    InfProjProblem,
    cq_report,
    dual_gap,
    eval_p,
    eval_p_conj,
    subdiff_p_witness,
)
from .numlin import DEFAULT_TOL, Tolerances
from .selftest import run_all
from .smooth import FitSpec, solve_smooth
from .vgf import KyFanParams, VgfInstance, kyfan_norm, vgf_eval, vgf_gauge_decomp


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization with fixed significant digits


def _fmt_float(v: float) -> str:
    if math.isfinite(v):
        return format(v, ".17g")
    return '"nan"' if math.isnan(v) else '"inf"' if v > 0 else '"-inf"'


def _jdump(obj, indent=0) -> str:
    if type(obj) is float:  # most of a report; numpy floats take the branch below
        return _fmt_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # what json.dumps(obj) returns
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return _jdump(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_jdump(v, indent + 1) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lines = [
            f'{pad}  {encode_basestring_ascii(str(k))}: {_jdump(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    raise CliError(f"unserializable value of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# parsing


def parse_matrix(path: str, symmetrize: bool = False, tol: Tolerances = DEFAULT_TOL):
    """Headerless CSV, rows of comma-separated decimals, row-major."""
    return _matrix({}, path, symmetrize, tol)


def _read(files: dict, path: str) -> bytes:
    """The file's bytes, read once per call: files (path -> bytes) keeps them for the digest."""
    if path not in files:
        try:
            with open(path, "rb") as fh:
                files[path] = fh.read()
        except OSError as exc:
            raise CliError(f"{path}: {exc}") from exc
    return files[path]


def _matrix(files: dict, path: str, symmetrize=False, tol=DEFAULT_TOL):
    # the bytes decoded as open(path) decodes: locale encoding, universal newlines
    rows = [line.strip() for line in io.TextIOWrapper(io.BytesIO(_read(files, path))) if line.strip()]
    if not rows:
        raise CliError(f"{path}: empty matrix file")
    data = []
    for i, row in enumerate(rows):
        try:
            vals = [float(tok) for tok in row.split(",")]
        except ValueError as exc:
            raise CliError(f"{path}: row {i + 1}: {exc}") from exc
        data.append(vals)
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise CliError(f"{path}: ragged rows (widths {sorted(widths)})")
    M = np.array(data, dtype=float)
    if not np.isfinite(M).all():
        raise CliError(f"{path}: non-finite entries")
    if symmetrize:
        if M.shape[0] != M.shape[1]:
            raise CliError(f"{path}: expected square matrix, got {M.shape}")
        skew = float(np.linalg.norm(M - M.T))
        if skew > tol.feas_abs * (1.0 + float(np.linalg.norm(M))):
            print(
                f"warning: {path}: symmetrized (asymmetry {skew:.3g})",
                file=sys.stderr,
            )
        M = 0.5 * (M + M.T)
    return M


def _matrix_arg(files, spec: str, shape, symmetrize=False, tol=DEFAULT_TOL):
    if spec == "zero":
        if shape is None:
            raise CliError('cannot infer dimensions for "zero"')
        return np.zeros(shape)
    return _matrix(files, spec, symmetrize, tol)


def _load_json(path: str) -> tuple[dict, bytes]:
    """The JSON object in the file at path, and the file's bytes."""
    data = _read({}, path)
    try:
        d = json.load(io.TextIOWrapper(io.BytesIO(data)))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if not isinstance(d, dict):
        raise CliError(f"{path}: expected a JSON object")
    return d, data


def parse_bundle(path: str) -> InfProjProblem:
    """JSON problem bundle -> InfProjProblem, with the tolerances of the
    bundle's "tol" block."""
    d = _load_json(path)[0]
    return _bundle_problem(path, d, _tolerances(d))


def _bundle_problem(path: str, d: dict, tol: Tolerances) -> InfProjProblem:
    """The problem of the bundle d read from path."""
    try:
        A = np.array(d["A"], dtype=float)
        B = np.array(d["B"], dtype=float)
        h = hspec_from_json(d["h"])
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"{path}: bad bundle: {exc}") from exc
    try:
        return InfProjProblem(ProblemData(A, B, tol), h)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# report plumbing


def _digest(paths, files: dict, seed) -> str:
    """md5 of each input's bytes in order (the name of "zero" or of a path not read), then the seed."""
    md = hashlib.md5()
    for p in paths:
        md.update(files[p] if p in files and p != "zero" else str(p).encode())
    md.update(str(seed).encode())
    return md.hexdigest()


def _emit(report: dict, out: str | None):
    text = _jdump(report) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"{out}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval_gmf(args, tol, bundle, files):
    X = _matrix_arg(files, args.X, None)
    V = _matrix_arg(files, args.V, (X.shape[0], X.shape[0]), symmetrize=True, tol=tol)
    n = X.shape[0]
    A = _matrix_arg(files, args.A, (1, n))
    B = _matrix_arg(files, args.B, (A.shape[0], X.shape[1]))
    pd = ProblemData(A, B, tol)
    ev = eval_gmf(pd, X, V)
    out = {"value": ev.value, "boundary": ev.boundary}
    if ev.witness_Y is not None:
        out["witness_Y"] = ev.witness_Y
    return out, 0, [args.A, args.B, args.X, args.V]


def _cmd_eval_p(args, tol, bundle, files):
    prob = _bundle_problem(args.bundle, bundle, tol)
    X = _matrix(files, args.X)
    pe = eval_p(prob, X, max_iter=args.max_iter, seed=args.seed)
    out = {"value": pe.value, "status": pe.status, "iters": pe.iters, "path": pe.path}
    if pe.V is not None:
        out["V"] = pe.V
    if pe.unbounded_direction is not None:
        out["unbounded_direction"] = pe.unbounded_direction
        out["unbounded_base"] = pe.unbounded_base
    return out, 0, [args.bundle, args.X]


def _cmd_conjugate(args, tol, bundle, files):
    prob = _bundle_problem(args.bundle, bundle, tol)
    Y = _matrix(files, args.Y)
    val, status = eval_p_conj(prob, Y)
    code = 2 if status != "exact" else 0
    return {"value": val, "status": status}, code, [args.bundle, args.Y]


def _cmd_dual_gap(args, tol, bundle, files):
    prob = _bundle_problem(args.bundle, bundle, tol)
    X = _matrix(files, args.X)
    p, d, gap, status = dual_gap(prob, X)
    code = 2 if status == "undecided" else 0
    out = {"primal": p, "dual": d, "gap": gap, "status": status}
    return out, code, [args.bundle, args.X]


def _cmd_subdiff(args, tol, bundle, files):
    prob = _bundle_problem(args.bundle, bundle, tol)
    X = _matrix(files, args.X)
    Y, gap, status = subdiff_p_witness(prob, X)
    code = 2 if status == "undecided" else 0
    return {"Y": Y, "fenchel_gap": gap, "status": status}, code, [args.bundle, args.X]


def _cmd_cq_report(args, tol, bundle, files):
    prob = _bundle_problem(args.bundle, bundle, tol)
    rep = cq_report(prob)
    out = {name: getattr(rep, name) for name in ("pcq", "spcq", "bpcq", "ccq", "sccq")}
    code = 2 if "undecided" in out.values() else 0
    return {**out, "notes": list(rep.notes)}, code, [args.bundle]


def _vgf_instance(args, Y, tol, bundle):
    prob = _bundle_problem(args.bundle, bundle, tol)
    if not isinstance(prob.h, Indicator):
        raise CliError(f"{args.bundle}: vgf commands need a bundle with indicator h")
    return VgfInstance(prob.h.set, Y.shape[1], tol)


def _cmd_vgf(args, tol, bundle, files):
    Y = _matrix(files, args.Y)
    inst = _vgf_instance(args, Y, tol, bundle)
    val, V = vgf_eval(inst, Y)
    out = {"value": val}
    if V is not None:
        out["V"] = V
    return out, 2 if np.isnan(val) else 0, [args.bundle, args.Y]


def _cmd_kyfan(args, tol, bundle, files):
    X = _matrix(files, args.X)
    params = KyFanParams(args.p, args.k)
    return {"value": kyfan_norm(params, X)}, 0, [args.X]


def _cmd_gauge_check(args, tol, bundle, files):
    Y = _matrix(files, args.Y)
    inst = _vgf_instance(args, Y, tol, bundle)
    gval, consistent, detail = vgf_gauge_decomp(inst, Y)
    out = {"gauge": gval, "consistent": bool(consistent), "detail": detail}
    return out, 0 if consistent else 2, [args.bundle, args.Y]


def _cmd_solve(args, tol, bundle, files):
    try:
        target = np.array(bundle["target"], dtype=float)
        mask = np.array(bundle["mask"], dtype=bool)
        lam = float(bundle["lam"])
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"{args.bundle}: {exc}") from exc
    if not (np.isfinite(lam) and lam > 0.0):  # Ubar = lam^2/2 I would hide the sign
        raise CliError(f"{args.bundle}: lam must be finite and positive, got {lam}")
    if mask.shape != target.shape:
        raise CliError(f"{args.bundle}: mask and target dimensions differ")
    n, m = target.shape
    fit = FitSpec.from_mask(mask, target)
    pd = ProblemData(np.zeros((1, n)), np.zeros((1, m)), tol)
    tr = solve_smooth(fit, pd, 0.5 * lam * lam * np.eye(n), max_iter=args.max_iter)
    F, me = tr.iterates[-1]
    out = {
        "status": tr.status,
        "final_X": tr.final_X,
        "objective": F,
        "min_eig_V": me,
        "stages": len(tr.stages),
        "stage_log": [st._asdict() for st in tr.stages],
        "nfev": sum(st.nfev for st in tr.stages),
        "dual_gap": tr.dual_gap,
    }
    return out, 0 if tr.status == "Converged" else 2, [args.bundle]


def _cmd_oracle_compare(args, tol, bundle, files):
    X = _matrix_arg(files, args.X, None)
    V = _matrix_arg(files, args.V, (X.shape[0], X.shape[0]), symmetrize=True, tol=tol)
    A = _matrix_arg(files, args.A, (1, X.shape[0]))
    B = _matrix_arg(files, args.B, (A.shape[0], X.shape[1]))
    pd = ProblemData(A, B, tol)
    a = eval_gmf(pd, X, V).value
    b = eval_gmf_oracle(pd, X, V).value
    err = abs(a - b) / (1.0 + abs(b))
    ok = err <= tol.conj_rel
    out = {"closed_form": a, "oracle": b, "rel_err": err, "agree": bool(ok)}
    return out, 0 if ok else 1, [args.A, args.B, args.X, args.V]


def _cmd_selftest(args, tol, bundle, files):
    buf = io.StringIO()
    ok = run_all(args.seed, stream=buf)
    sys.stdout.write(buf.getvalue())
    return {"all_pass": bool(ok), "log": buf.getvalue().splitlines()}, 0 if ok else 1, []


# command -> (handler, the flags it requires, its optional flags), by dest
_COMMANDS = {
    "eval-gmf": (_cmd_eval_gmf, ("X", "V"), ("A", "B")),
    "eval-p": (_cmd_eval_p, ("bundle", "X"), ("max_iter",)),
    "conjugate": (_cmd_conjugate, ("bundle", "Y"), ()),
    "dual-gap": (_cmd_dual_gap, ("bundle", "X"), ()),
    "subdiff": (_cmd_subdiff, ("bundle", "X"), ()),
    "cq-report": (_cmd_cq_report, ("bundle",), ()),
    "vgf": (_cmd_vgf, ("bundle", "Y"), ()),
    "kyfan": (_cmd_kyfan, ("X",), ("p", "k")),
    "gauge-check": (_cmd_gauge_check, ("bundle", "Y"), ()),
    "solve": (_cmd_solve, ("bundle",), ("max_iter",)),
    "oracle-compare": (_cmd_oracle_compare, ("X", "V"), ("A", "B")),
    "selftest": (_cmd_selftest, (), ()),
}

# dest -> (flag, argparse keywords); nothing here may read the environment,
# because the parser is built once per process
_FLAGS = {
    "A": ("--A", {"default": "zero"}),
    "B": ("--B", {"default": "zero"}),
    "X": ("--X", {}),
    "V": ("--V", {}),
    "Y": ("--Y", {}),
    "bundle": ("--bundle", {}),
    "p": ("--p", {"type": float, "default": 2.0}),
    "k": ("--k", {"type": int, "default": 1}),
    "max_iter": ("--max-iter", {"type": int, "default": 4000}),
    "out": ("--out", {}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "rank_rel": ("--tol-rank", {"type": float}),
    "psd_abs": ("--tol-psd", {"type": float}),
    "feas_abs": ("--tol-feas", {"type": float}),
    "conj_rel": ("--tol-conj", {"type": float}),
}

# the flags every subcommand takes
_COMMON = ("out", "seed", "rank_rel", "psd_abs", "feas_abs", "conj_rel")


class _Parser(argparse.ArgumentParser):
    """A usage error raises CliError, so main returns 1 instead of the
    process exiting with argparse's 2, the code for an undecided outcome."""

    def error(self, message):
        raise CliError(message)


@functools.cache
def _build_parser() -> _Parser:
    ap = _Parser(
        prog="gmfkit",
        description="matrix-fractional functions, infimal projections, "
        "and related convex-analysis tools",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for dest in required:
            flag, kw = _FLAGS[dest]
            sp.add_argument(flag, dest=dest, required=True, **kw)
        for dest in optional + _COMMON:
            flag, kw = _FLAGS[dest]
            sp.add_argument(flag, dest=dest, **kw)
    ap.commands = sub.choices  # command -> its parser, for main
    return ap


def _tolerances(bundle: dict, /, **flags) -> Tolerances:
    """A --tol-* flag that is given sets its field; the bundle's "tol"
    block, if any, sets the others, and the defaults the rest."""
    given = {k: v for k, v in flags.items() if v is not None}
    try:
        return Tolerances.from_dict({**bundle.get("tol", {}), **given})
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad tolerances: {exc}") from exc


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        if argv and argv[0] in _COMMANDS:  # its own parser: the top level only picks it
            args = _build_parser().commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:  # no command, an unknown one or --help: the top-level messages and exits
            args = _build_parser().parse_args(argv)
        t0 = time.perf_counter()
        bundle, files = {}, {}  # files: path -> bytes of each input read in this call
        if getattr(args, "bundle", None):
            bundle, files[args.bundle] = _load_json(args.bundle)
        tol = _tolerances(bundle, **vars(args))
        outputs, code, inputs = _COMMANDS[args.command][0](args, tol, bundle, files)
        report = {
            "command": args.command,
            "inputs_digest": _digest(inputs, files, args.seed),
            "seed": args.seed,
            "tolerances": tol.to_dict(),
            "outputs": outputs,
            "wall_time_s": time.perf_counter() - t0,
        }
        _emit(report, args.out)
    except (CliError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
