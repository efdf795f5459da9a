import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gmfkit import cli
from gmfkit.cli import (
    _COMMANDS,
    _COMMON,
    _FLAGS,
    CliError,
    _build_parser,
    main,
    parse_bundle,
    parse_matrix,
)
from gmfkit.hset import Indicator, Linear, hspec_to_json
from gmfkit.smooth import FitSpec, solve_prox_reference


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip().startswith("{") else None
    return code, report


# ---------------------------------------------------------------------------
# parsing


def test_parse_matrix_roundtrip(tmp_path):
    p = write(tmp_path, "m.csv", "1,2\n3,4\n")
    M = parse_matrix(p)
    assert np.allclose(M, [[1, 2], [3, 4]])


def test_parse_matrix_ragged(tmp_path):
    p = write(tmp_path, "m.csv", "1,2\n3\n")
    with pytest.raises(CliError):
        parse_matrix(p)


def test_parse_matrix_nan(tmp_path):
    p = write(tmp_path, "m.csv", "1,nan\n2,3\n")
    with pytest.raises(CliError):
        parse_matrix(p)


def test_parse_matrix_symmetrize_warns(tmp_path, capsys):
    p = write(tmp_path, "m.csv", "1,2\n2.5,1\n")
    M = parse_matrix(p, symmetrize=True)
    assert np.allclose(M, M.T)
    assert "symmetrized" in capsys.readouterr().err


def test_parse_bundle_variants(tmp_path):
    lin = write(
        tmp_path,
        "lin.json",
        '{"A": [[0.0, 0.0]], "B": [[0.0]], '
        '"h": {"kind": "linear", "U": [[0.5, 0.0], [0.0, 0.5]]}}',
    )
    prob = parse_bundle(lin)
    assert isinstance(prob.h, Linear)
    ind = write(
        tmp_path,
        "ind.json",
        '{"A": [[0.0, 0.0]], "B": [[0.0]], '
        '"h": {"kind": "indicator", '
        '"set": {"kind": "trace_ball", "r": 1.0, "n": 2}}}',
    )
    prob = parse_bundle(ind)
    assert isinstance(prob.h, Indicator)


def test_parse_bundle_unknown_tag(tmp_path):
    p = write(
        tmp_path,
        "bad.json",
        '{"A": [[0.0]], "B": [[0.0]], "h": {"kind": "mystery"}}',
    )
    with pytest.raises(CliError):
        parse_bundle(p)


# ---------------------------------------------------------------------------
# subcommands


def test_eval_gmf_scalar_example(tmp_path, capsys):
    x = write(tmp_path, "x.csv", "1\n")
    v = write(tmp_path, "v.csv", "2\n")
    code, rep = run(
        capsys, ["eval-gmf", "--A", "zero", "--B", "zero", "--X", x, "--V", v]
    )
    assert code == 0
    assert rep["outputs"]["value"] == 0.25


def test_kyfan_example(tmp_path, capsys):
    x = write(tmp_path, "x.csv", "3,0,0\n0,4,0\n0,0,0\n")
    code, rep = run(capsys, ["kyfan", "--p", "1", "--k", "2", "--X", x])
    assert code == 0
    assert rep["outputs"]["value"] == 7


def test_cq_report_example(tmp_path, capsys):
    bundle = write(
        tmp_path,
        "b.json",
        json.dumps(
            {
                "A": [[1.0, 0.0], [0.0, 0.0]],
                "B": [[1.0], [0.0]],
                "h": {
                    "kind": "indicator",
                    "set": {
                        "kind": "hull",
                        "points": [
                            [[0.0, 0.0], [0.0, 0.0]],
                            [[1.0, 0.0], [0.0, 0.0]],
                        ],
                    },
                },
            }
        ),
    )
    code, rep = run(capsys, ["cq-report", "--bundle", bundle])
    assert code == 0
    assert rep["outputs"]["ccq"] == "fails"
    assert rep["outputs"]["bpcq"] == "holds"


def test_eval_p_nuclear(tmp_path, capsys):
    bundle = write(
        tmp_path,
        "nuc.json",
        '{"A": [[0.0, 0.0]], "B": [[0.0]], '
        '"h": {"kind": "linear", "U": [[0.5, 0.0], [0.0, 0.5]]}}',
    )
    x = write(tmp_path, "x.csv", "3\n4\n")
    code, rep = run(capsys, ["eval-p", "--bundle", bundle, "--X", x])
    assert code == 0
    assert rep["outputs"]["value"] == pytest.approx(5.0, rel=1e-6)
    assert rep["outputs"]["path"] == "weighted_nuclear"
    assert rep["outputs"]["iters"] == 0


def test_eval_p_reports_the_path(tmp_path, capsys):
    x = write(tmp_path, "x.csv", "3\n4\n")
    ball = {"kind": "trace_ball", "r": 2.0, "n": 2}
    point = {"kind": "singleton", "U": [[1.0, 0.0], [0.0, 2.0]]}
    hull = {"kind": "hull", "points": [point["U"]]}
    cases = [(ball, "spectral", 6.25), (point, "loewner", 8.5), (hull, "descent", 8.5)]
    for S, path, value in cases:
        h = {"kind": "indicator", "set": S}
        bundle = write(
            tmp_path, "b.json", json.dumps({"A": [[0.0, 0.0]], "B": [[0.0]], "h": h})
        )
        code, rep = run(capsys, ["eval-p", "--bundle", bundle, "--X", x])
        assert code == 0
        assert rep["outputs"]["path"] == path
        assert rep["outputs"]["value"] == pytest.approx(value, rel=1e-9)


def test_bundle_tolerances_apply_unless_a_flag_is_given(tmp_path, capsys):
    # X = (1e-7, 0) leaves the range of every V in the box [-1, 0] unless
    # feas_abs >= 1e-7, so the status shows which feas_abs was used
    box = {"kind": "spectral_box", "lo": -1.0, "hi": 0.0, "n": 2}
    d = {"A": [[0.0, 0.0]], "B": [[0.0]], "h": {"kind": "indicator", "set": box}}
    d["tol"] = {"psd_abs": 1e-7, "feas_abs": 1e-6}
    bundle = write(tmp_path, "b.json", json.dumps(d))
    x = write(tmp_path, "x.csv", "1e-7\n0\n")
    code, rep = run(capsys, ["eval-p", "--bundle", bundle, "--X", x])
    assert code == 0
    assert rep["tolerances"] == {
        "rank_rel": 1e-10,
        "psd_abs": 1e-7,
        "feas_abs": 1e-6,
        "conj_rel": 1e-6,
    }
    assert rep["outputs"]["status"] == "finite"
    code, rep = run(capsys, ["eval-p", "--bundle", bundle, "--X", x, "--tol-feas", "1e-8"])
    assert code == 0
    assert rep["tolerances"]["feas_abs"] == 1e-8
    assert rep["tolerances"]["psd_abs"] == 1e-7
    assert rep["outputs"]["status"] == "infeasible"
    d["tol"] = {"psd_abs": 0.5}  # out of range
    bad = write(tmp_path, "bad.json", json.dumps(d))
    assert main(["eval-p", "--bundle", bad, "--X", x]) == 1


def test_solve_command(tmp_path, capsys):
    bundle = write(
        tmp_path,
        "comp.json",
        json.dumps(
            {
                "target": [[1.0, 2.0], [2.0, 4.0]],
                "mask": [[1, 1], [1, 1]],
                "lam": 0.5,
            }
        ),
    )
    code, rep = run(capsys, ["solve", "--bundle", bundle])
    assert code == 0
    assert rep["outputs"]["status"] == "Converged"
    assert rep["outputs"]["min_eig_V"] > 0


def test_solve_honours_the_tolerance_flags(tmp_path, capsys):
    # Ubar = lam^2 I / 2 = 4.5e-10 I is positive definite only below the
    # default psd_abs; solve used to test it against the defaults
    target = [[1.0, 2.0], [2.0, 4.0]]
    d = {"target": target, "mask": [[1, 1], [1, 1]], "lam": 3e-5}
    bundle = write(tmp_path, "comp.json", json.dumps(d))
    assert main(["solve", "--bundle", bundle]) == 1
    capsys.readouterr()
    code, rep = run(capsys, ["solve", "--bundle", bundle, "--tol-psd", "1e-12"])
    assert code == 0
    assert rep["tolerances"]["psd_abs"] == 1e-12
    assert rep["outputs"]["status"] == "Converged"
    fit = FitSpec.from_mask(np.ones((2, 2), dtype=bool), np.array(target))
    ref = solve_prox_reference(fit, np.eye(2), 3e-5)
    assert np.allclose(rep["outputs"]["final_X"], ref, atol=1e-6)


def test_each_bundle_is_read_once(tmp_path, capsys, monkeypatch):
    reads = []
    load = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: reads.append(path) or load(path))
    d = {"A": [[0.0, 0.0]], "B": [[0.0]], "h": {"kind": "linear", "U": [[1.0, 0.0], [0.0, 1.0]]}}
    d["tol"] = {"feas_abs": 1e-7}
    bundle = write(tmp_path, "b.json", json.dumps(d))
    comp = write(tmp_path, "comp.json", json.dumps({"target": [[1.0]], "mask": [[1]], "lam": 0.5}))
    x = write(tmp_path, "x.csv", "1\n0\n")
    for argv in (
        ["eval-p", "--bundle", bundle, "--X", x],
        ["cq-report", "--bundle", bundle],
        ["solve", "--bundle", comp],
    ):
        reads.clear()
        code, rep = run(capsys, argv)
        assert code == 0
        assert reads == [argv[2]]


def test_oracle_compare(tmp_path, capsys):
    x = write(tmp_path, "x.csv", "1\n-1\n")
    v = write(tmp_path, "v.csv", "2,0\n0,3\n")
    code, rep = run(capsys, ["oracle-compare", "--X", x, "--V", v])
    assert code == 0
    assert rep["outputs"]["agree"] is True


# ---------------------------------------------------------------------------
# exit codes and report contract


def test_missing_file_exits_one(capsys):
    assert main(["eval-p", "--bundle", "/no/such.json", "--X", "/no/x.csv"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert main(["eval-p"]) == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    # argparse would exit the process with 2, the code for "undecided"
    x = write(tmp_path, "x.csv", "1\n")
    for argv in (
        ["eval-p", "--bogus", "1"],
        ["eval-p", "--max-iter", "abc"],
        ["kyfan", "--X", x, "--bundle", "b.json"],
        ["no-such-command"],
        [],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_subcommand_takes_exactly_its_flags(command, capsys):
    _, required, optional = _COMMANDS[command]
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {a.dest: a.required for a in sub.choices[command]._actions if a.dest != "help"}
    assert taken == {**dict.fromkeys(_COMMON + optional, False), **dict.fromkeys(required, True)}
    given = [arg for dest in required for arg in (_FLAGS[dest][0], "missing.csv")]
    outside = next(flag for dest, (flag, _) in _FLAGS.items() if dest not in taken)
    assert main([command, *given, outside, "1"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    if required:
        assert main([command]) == 1
        assert "required" in capsys.readouterr().err


def test_seed_default_is_read_on_every_call(tmp_path, capsys, monkeypatch):
    x = write(tmp_path, "x.csv", "3,0\n0,4\n")
    seeds = []
    for value in ("5", "9"):
        monkeypatch.setenv("GMFKIT_SEED", value)
        seeds.append(run(capsys, ["kyfan", "--X", x])[1]["seed"])
    seeds.append(run(capsys, ["kyfan", "--X", x, "--seed", "3"])[1]["seed"])
    monkeypatch.delenv("GMFKIT_SEED")
    seeds.append(run(capsys, ["kyfan", "--X", x])[1]["seed"])
    assert seeds == [5, 9, 3, 0]


def test_entry_point_exit_codes(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    x = write(tmp_path, "x.csv", "3,0\n0,4\n")

    def call(*argv):
        cmd = [sys.executable, "-m", "gmfkit.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

    good = call("kyfan", "--X", x)
    assert good.returncode == 0
    assert json.loads(good.stdout)["command"] == "kyfan"
    bad = call("kyfan", "--X", x, "--bogus", "1")
    assert bad.returncode == 1
    assert "error: unrecognized arguments: --bogus 1" in bad.stderr


def test_undecided_exit_code(tmp_path, capsys):
    # sigma of hull{I, 0} with one equality row: PCQ and SCCQ stay undecided
    bundle = write(
        tmp_path,
        "b.json",
        json.dumps(
            {
                "A": [[1.0, 1.0, 0.0]],
                "B": [[1.0]],
                "h": {
                    "kind": "support",
                    "set": {"kind": "hull", "points": [np.eye(3).tolist(), np.zeros((3, 3)).tolist()]},
                },
            }
        ),
    )
    code, rep = run(capsys, ["cq-report", "--bundle", bundle])
    assert code == 2
    assert (rep["outputs"]["pcq"], rep["outputs"]["sccq"]) == ("undecided", "undecided")


def test_hull_missing_the_psd_cone_fails_every_cq(tmp_path, capsys):
    # lambda_min <= -1/sqrt(2) on the segment between the two points, so
    # S meets no PSD matrix; the report used to abstain on this hull
    hull = {"kind": "hull", "points": [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]}
    bundle = write(
        tmp_path,
        "b.json",
        json.dumps({"A": [[0.0, 0.0]], "B": [[0.0]], "h": {"kind": "indicator", "set": hull}}),
    )
    code, rep = run(capsys, ["cq-report", "--bundle", bundle])
    assert code == 0
    assert [rep["outputs"][k] for k in ("pcq", "spcq", "bpcq", "ccq", "sccq")] == ["fails"] * 5


def test_conjugate_abstains_on_a_hull_without_psd_vertex(tmp_path, capsys):
    # the support over hull cap PSD is not implemented when no vertex is
    # PSD; conjugate reports that as undecided instead of raising
    hull = {
        "kind": "hull",
        "points": [[[1.0, 0.0], [0.0, -1.0]], [[-1.0, 0.0], [0.0, 1.0]]],
    }
    h = {"kind": "indicator", "set": hull}
    bundle = write(
        tmp_path, "b.json", json.dumps({"A": [[0.0, 0.0]], "B": [[0.0]], "h": h})
    )
    y = write(tmp_path, "y.csv", "1\n0.5\n")
    code, rep = run(capsys, ["conjugate", "--bundle", bundle, "--Y", y])
    assert code == 2
    assert rep["outputs"]["status"] == "undecided"


def test_determinism_excluding_wall_time(tmp_path, capsys):
    bundle = write(
        tmp_path,
        "nuc.json",
        '{"A": [[0.0, 0.0]], "B": [[0.0]], '
        '"h": {"kind": "linear", "U": [[0.5, 0.0], [0.0, 0.5]]}}',
    )
    x = write(tmp_path, "x.csv", "1\n2\n")
    texts = []
    for _ in range(2):
        main(["eval-p", "--bundle", bundle, "--X", x, "--seed", "3"])
        out = capsys.readouterr().out
        texts.append(re.sub(r'"wall_time_s": [^\n]+', '"wall_time_s": 0', out))
    assert texts[0] == texts[1]


def test_seventeen_digit_output(tmp_path, capsys):
    x = write(tmp_path, "x.csv", "1\n")
    v = write(tmp_path, "v.csv", "3\n")
    main(["eval-gmf", "--X", x, "--V", v])
    out = capsys.readouterr().out
    # 1/6 must carry the full 17 significant digits
    assert "0.16666666666666666" in out


def test_out_flag_writes_file(tmp_path, capsys):
    x = write(tmp_path, "x.csv", "1\n")
    v = write(tmp_path, "v.csv", "2\n")
    dest = str(tmp_path / "report.json")
    code = main(["eval-gmf", "--X", x, "--V", v, "--out", dest])
    assert code == 0
    rep = json.loads(open(dest).read())
    assert rep["outputs"]["value"] == 0.25


@pytest.mark.parametrize("U,p", [([[1.0, 0.0], [0.0, 1.0]], -np.inf), ([[0.5, 1.0], [1.0, 2.0]], 2.0)])
def test_dual_gap_is_decided_for_linear_h_with_an_equality_constraint(tmp_path, capsys, U, p):
    # A = [1, 0], B = 1: U = I leaves Xi(A, B) empty (p = -inf on a ray);
    # the second U gives p = x1 + 2 x2; both used to exit 2 ("undecided")
    bundle = write(tmp_path, "b.json", json.dumps({"A": [[1.0, 0.0]], "B": [[1.0]], "h": {"kind": "linear", "U": U}}))
    X = write(tmp_path, "x.csv", "0\n1\n")
    code, rep = run(capsys, ["dual-gap", "--bundle", bundle, "--X", X])
    out = rep["outputs"]
    assert (code, out["status"], out["gap"]) == (0, "exact", 0)
    assert float(out["primal"]) == float(out["dual"]) == pytest.approx(p)


def test_support_h_with_trivial_kernel_reports_its_ray(tmp_path, capsys):
    # criterion 13, seed 0, #337: C0 = Y0 Y0^T / 2 lies outside S, so
    # p = -inf; eval-p said "finite" after one descent step and dual-gap
    # exited 2
    from test_infproj import _criterion_13_row

    prob, X = _criterion_13_row(0, 337)
    doc = {"A": prob.pd.A.tolist(), "B": prob.pd.B.tolist(), "h": hspec_to_json(prob.h)}
    bundle = write(tmp_path, "b.json", json.dumps(doc))
    x = write(tmp_path, "x.csv", "\n".join(",".join(repr(float(v)) for v in row) for row in X))
    code, rep = run(capsys, ["eval-p", "--bundle", bundle, "--X", x])
    assert (code, rep["outputs"]["status"], rep["outputs"]["path"]) == (0, "unbounded", "recession")
    assert "unbounded_direction" in rep["outputs"]
    code, rep = run(capsys, ["dual-gap", "--bundle", bundle, "--X", x])
    assert (code, rep["outputs"]["status"]) == (0, "exact")
