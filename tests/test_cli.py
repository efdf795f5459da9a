import argparse
import hashlib
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


def test_bundle_with_non_finite_h_data_exits_1(tmp_path, capsys):
    # eval-p used to exit 0 with value 0: the symmetry check passed NaN
    bundle = write(tmp_path, "b.json", '{"A": [[0, 0]], "B": [[0]], "h": {"kind": "linear", "U": [[NaN, 0], [0, 1]]}}')
    x = write(tmp_path, "x.csv", "1\n2\n")
    code, _ = run(capsys, ["eval-p", "--bundle", bundle, "--X", x])
    assert code == 1


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


@pytest.mark.parametrize("v, boundary", [("0", True), ("-1", False)], ids=["off-range", "outside-KA"])
def test_eval_gmf_reports_where_phi_is_infinite(tmp_path, capsys, v, boundary):
    # V = 0 lies on the boundary of K_A with X = 1 off its range; V = -1 outside K_A
    x = write(tmp_path, "x.csv", "1\n")
    v = write(tmp_path, "v.csv", v + "\n")
    code, rep = run(capsys, ["eval-gmf", "--A", "zero", "--B", "zero", "--X", x, "--V", v])
    assert code == 0
    assert rep["outputs"] == {"value": "inf", "boundary": boundary}


def test_kyfan_example(tmp_path, capsys):
    x = write(tmp_path, "x.csv", "3,0,0\n0,4,0\n0,0,0\n")
    code, rep = run(capsys, ["kyfan", "--p", "1", "--k", "2", "--X", x])
    assert code == 0
    assert rep["outputs"]["value"] == 7


def test_kyfan_refuses_a_nan_p(tmp_path, capsys):
    # "nan" parsed as a float, passed p < 1 and printed the value "nan", exit 0
    x = write(tmp_path, "x.csv", "1,2\n")
    assert main(["kyfan", "--X", x, "--p", "nan"]) == 1
    assert capsys.readouterr().err == "error: need p >= 1\n"


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


def test_eval_p_exits_1_where_the_spectral_value_overflows(tmp_path, capsys):
    # p(X) = x1^2 / 2 overflows; eval-p exited 0 with status "finite", value inf
    h = {"kind": "indicator", "set": {"kind": "trace_ball", "r": 1.0, "n": 2}}
    bundle = write(tmp_path, "b.json", json.dumps({"A": [[0.0, 0.0]], "B": [[0.0]], "h": h}))
    x = write(tmp_path, "x.csv", "1e200\n0\n")
    with np.errstate(over="ignore"):
        code, rep = run(capsys, ["eval-p", "--bundle", bundle, "--X", x])
    assert (code, rep) == (1, None)


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
    out = rep["outputs"]
    assert out["status"] == "Converged"
    assert out["min_eig_V"] > 0
    assert len(out["stage_log"]) == out["stages"]
    assert "grad_norm" not in out
    assert set(out["stage_log"][0]) == {"mu", "gtol", "nit", "nfev", "message"}
    assert out["stage_log"][-1]["gtol"] == 1e-14
    assert out["nfev"] == sum(st["nfev"] for st in out["stage_log"])
    assert 0.0 <= out["dual_gap"] <= 1e-6


def test_solve_stopped_at_the_stage_cap_exits_2(tmp_path, capsys):
    g = np.random.default_rng(8)
    target = g.standard_normal((5, 2)) @ g.standard_normal((2, 5))
    mask = g.random((5, 5)) < 0.8
    d = {"target": target.tolist(), "mask": mask.astype(int).tolist(), "lam": 0.4}
    bundle = write(tmp_path, "comp.json", json.dumps(d))
    code, rep = run(capsys, ["solve", "--bundle", bundle, "--max-iter", "2"])
    assert code == 2
    assert rep["outputs"]["status"] == "IterCap"
    assert max(st["nit"] for st in rep["outputs"]["stage_log"]) == 2


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
    # every input file, the digest included, is opened once per call, and
    # the digest is the md5 of those bytes in the command's order, then the seed
    opened = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda f, *a, **k: opened.append(str(f)) or real_open(f, *a, **k))
    y = write(tmp_path, "y.csv", "1\n0\n")
    v = write(tmp_path, "v.csv", "2,0\n0,3\n")
    a = write(tmp_path, "a.csv", "1,0\n")
    b = write(tmp_path, "b.csv", "1\n")
    for argv, inputs in (
        (["eval-gmf", "--X", x, "--V", v, "--A", a, "--B", b, "--seed", "5"], [a, b, x, v]),
        (["eval-p", "--bundle", bundle, "--X", x], [bundle, x]),
        (["conjugate", "--bundle", bundle, "--Y", y, "--seed", "2"], [bundle, y]),
        (["cq-report", "--bundle", bundle], [bundle]),
        (["solve", "--bundle", comp], [comp]),
    ):
        opened.clear()
        code, rep = run(capsys, argv)
        assert code == 0
        assert sorted(p for p in opened if p.startswith(str(tmp_path))) == sorted(inputs)
        md = hashlib.md5(b"".join(Path(p).read_bytes() for p in inputs) + str(rep["seed"]).encode())
        assert rep["inputs_digest"] == md.hexdigest()


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


_LINEAR = {"A": [[0.0, 0.0]], "B": [[0.0]], "h": {"kind": "linear", "U": [[1.0, 0.0], [0.0, 1.0]]}}


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({"x.csv": "\n"}, ["kyfan", "--X", "x.csv"], "x.csv: empty matrix file"),
        ({"x.csv": "1,2\n3,a\n"}, ["kyfan", "--X", "x.csv"], "x.csv: row 2: "),
        ({"x.csv": "1\n0\n", "v.csv": "1,0,0\n0,1,0\n"}, ["eval-gmf", "--X", "x.csv", "--V", "v.csv"], "v.csv: expected square matrix"),
        ({"v.csv": "1\n"}, ["eval-gmf", "--X", "zero", "--V", "v.csv"], 'dimensions for "zero"'),
        ({"b.json": "{not json"}, ["cq-report", "--bundle", "b.json"], "b.json: Expecting property name"),
        ({"b.json": "[1, 2]"}, ["cq-report", "--bundle", "b.json"], "b.json: expected a JSON object"),
        ({"b.json": json.dumps(dict(_LINEAR, B=[[0.0], [1.0]]))}, ["cq-report", "--bundle", "b.json"], "b.json: A and B must have the same number of rows"),
        ({"b.json": json.dumps(_LINEAR), "y.csv": "1\n0\n"}, ["vgf", "--bundle", "b.json", "--Y", "y.csv"], "b.json: vgf commands need a bundle with indicator h"),
        ({"b.json": json.dumps({"target": [[1.0, 2.0]], "mask": [[1], [1]], "lam": 0.5})}, ["solve", "--bundle", "b.json"], "b.json: mask and target dimensions differ"),
    ],
    ids=["empty-matrix", "non-numeric-row", "non-square-V", "X-zero", "bad-json", "non-object-json", "bad-bundle-data", "vgf-linear-h", "solve-mask-shape"],
)
def test_bad_input_exits_1_with_a_message_that_names_it(tmp_path, capsys, files, argv, message):
    paths = {name: write(tmp_path, name, text) for name, text in files.items()}
    assert main([paths.get(a, a) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert message in err.replace(str(tmp_path) + os.sep, "")


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
    # the seed comes from --seed alone, never from the environment
    monkeypatch.setenv("GMFKIT_SEED", "5")
    seeds = [run(capsys, ["kyfan", "--X", x] + flag)[1]["seed"] for flag in ([], ["--seed", "3"], [])]
    assert seeds == [0, 3, 0]


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


def test_conjugate_decides_on_a_hull_without_psd_vertex(tmp_path, capsys):
    # hull{diag(1, -1), diag(-1, 1)} meets PSD only at w = (1/2, 1/2), in
    # 0, so p*(Y) = 0 at every Y; no vertex is PSD, and the cut of
    # diag(1, -1)'s lambda_min leaves that one point
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
    assert code == 0
    assert rep["outputs"] == {"value": 0.0, "status": "exact"}


def test_vgf_exits_2_where_the_hull_cuts_run_out(tmp_path, capsys, monkeypatch):
    # Phi(Y) lies between the vertices; with one cut allowed it is nan, "undecided"
    from gmfkit import hset

    monkeypatch.setattr(hset, "_MAX_CUTS", 1)
    points = [np.diag(d).tolist() for d in ([2.0, -1.0], [0.0, 1.0], [-1.0, -1.0])]
    h = {"kind": "indicator", "set": {"kind": "hull", "points": points}}
    bundle = write(tmp_path, "b.json", json.dumps({"A": [[0.0, 0.0]], "B": [[0.0]], "h": h}))
    y = write(tmp_path, "y.csv", "1\n0\n")
    code, rep = run(capsys, ["vgf", "--bundle", bundle, "--Y", y])
    assert code == 2 and rep["outputs"] == {"value": "nan"}


def test_vgf_on_a_hull_without_psd_vertex_exits_1(tmp_path, capsys):
    # the instance's nonemptiness test raised NotImplementedError through main
    h = {"kind": "indicator", "set": {"kind": "hull", "points": [[[-1.0, 0.0], [0.0, -1.0]]]}}
    bundle = write(tmp_path, "b.json", json.dumps({"A": [[0.0, 0.0]], "B": [[0.0]], "h": h}))
    y = write(tmp_path, "y.csv", "1\n0.5\n")
    assert main(["vgf", "--bundle", bundle, "--Y", y]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_conjugate_at_a_Y_of_the_wrong_width_exits_1(tmp_path, capsys):
    # A Y - B broadcast the 2 x 1 Y against B of width 2: value 0, "exact", exit 0
    h = {"kind": "linear", "U": [[0.5, 0.0], [0.0, 1.0]]}
    bundle = write(tmp_path, "b.json", json.dumps({"A": [[1.0, 0.0]], "B": [[1.0, 2.0]], "h": h}))
    y = write(tmp_path, "y.csv", "1\n0\n")
    code, rep = run(capsys, ["conjugate", "--bundle", bundle, "--Y", y])
    assert (code, rep) == (1, None)


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


def test_an_out_path_that_cannot_be_written_exits_1(tmp_path, capsys):
    # the FileNotFoundError used to escape main as a traceback
    x = write(tmp_path, "x.csv", "1\n")
    v = write(tmp_path, "v.csv", "2\n")
    dest = str(tmp_path / "no" / "such" / "report.json")
    assert main(["eval-gmf", "--X", x, "--V", v, "--out", dest]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {dest}: ") and captured.out == ""


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
    assert not np.any(rep["outputs"]["unbounded_base"])  # the ray starts at V = 0
    code, rep = run(capsys, ["dual-gap", "--bundle", bundle, "--X", x])
    assert (code, rep["outputs"]["status"]) == (0, "exact")


def test_subdiff_reports_a_subgradient_with_its_gap(tmp_path, capsys):
    # p = |L X|_* with L = (2U)^{1/2} = I: a subgradient Y of the nuclear
    # norm at X = (3, 4)^T is X / |X|
    bundle = write(
        tmp_path, "b.json", json.dumps({"A": [[0.0, 0.0]], "B": [[0.0]], "h": {"kind": "linear", "U": [[0.5, 0.0], [0.0, 0.5]]}})
    )
    x = write(tmp_path, "x.csv", "3\n4\n")
    code, rep = run(capsys, ["subdiff", "--bundle", bundle, "--X", x])
    out = rep["outputs"]
    assert (code, set(out), out["status"]) == (0, {"Y", "fenchel_gap", "status"}, "exact")
    assert np.allclose(out["Y"], [[0.6], [0.8]])
    assert abs(out["fenchel_gap"]) <= 1e-9


def test_vgf_reports_the_value_and_its_maximizer(tmp_path, capsys):
    # over the trace ball of radius 2, Phi(Y) = r |Y|_2^2 / 2 = 25
    ball = {"kind": "trace_ball", "r": 2.0, "n": 2}
    bundle = write(tmp_path, "b.json", json.dumps({"A": [[0.0, 0.0]], "B": [[0.0]], "h": {"kind": "indicator", "set": ball}}))
    y = write(tmp_path, "y.csv", "3\n4\n")
    code, rep = run(capsys, ["vgf", "--bundle", bundle, "--Y", y])
    out = rep["outputs"]
    assert (code, set(out)) == (0, {"value", "V"})
    assert out["value"] == pytest.approx(25.0, rel=1e-12)
    assert np.allclose(out["V"], 2.0 * np.array([[9.0, 12.0], [12.0, 16.0]]) / 25.0)


def test_gauge_check_agrees_with_the_closed_form(tmp_path, capsys):
    box = {"kind": "spectral_box", "lo": 0.0, "hi": 1.0, "n": 2}
    bundle = write(tmp_path, "b.json", json.dumps({"A": [[0.0, 0.0]], "B": [[0.0]], "h": {"kind": "indicator", "set": box}}))
    y = write(tmp_path, "y.csv", "3,0\n0,4\n")
    code, rep = run(capsys, ["gauge-check", "--bundle", bundle, "--Y", y])
    out = rep["outputs"]
    assert (code, set(out), out["consistent"]) == (0, {"gauge", "consistent", "detail"}, True)
    assert out["gauge"] == pytest.approx(5.0, rel=1e-9)  # the Frobenius norm


@pytest.mark.parametrize("fail", [False, True])
def test_selftest_exit_code_and_log(tmp_path, capsys, monkeypatch, fail):
    import gmfkit.selftest

    criteria = [("cheap pass", lambda seed: (True, f"seed {seed}"))]
    if fail:
        criteria.append(("cheap fail", lambda seed: (False, "bad")))
    monkeypatch.setattr(gmfkit.selftest, "CRITERIA", criteria)
    dest = str(tmp_path / "report.json")
    code = main(["selftest", "--seed", "4", "--out", dest])
    log = ["criterion 01 cheap pass: PASS (seed 4)"] + ["criterion 02 cheap fail: FAIL (bad)"] * fail
    assert code == int(fail)
    assert capsys.readouterr().out.splitlines() == log
    rep = json.loads(open(dest).read())
    assert rep["outputs"] == {"all_pass": not fail, "log": log}


@pytest.mark.parametrize("tol", [[1e-9], "1e-9", None])
def test_a_tol_block_that_is_not_an_object_is_refused(tmp_path, capsys, tol):
    d = {"A": [[0.0, 0.0]], "B": [[0.0]], "h": {"kind": "linear", "U": [[1.0, 0.0], [0.0, 1.0]]}, "tol": tol}
    bundle = write(tmp_path, "b.json", json.dumps(d))
    with pytest.raises(CliError, match="bad tolerances"):
        parse_bundle(bundle)
    assert main(["cq-report", "--bundle", bundle]) == 1
    assert "bad tolerances" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lam, message",
    [
        (-0.4, "lam must be finite and positive"),
        (0.0, "lam must be finite"),
        (float("inf"), "lam must be finite"),
        (None, "float()"),
    ],
)
def test_solve_refuses_a_lam_that_is_not_positive(tmp_path, capsys, lam, message):
    # Ubar = lam^2/2 I: lam = -0.4 used to solve the lam = 0.4 problem, and
    # a null lam escaped main as a TypeError
    d = {"target": [[1.0, 2.0], [2.0, 4.0]], "mask": [[1, 1], [1, 1]], "lam": lam}
    bundle = write(tmp_path, "comp.json", json.dumps(d))
    assert main(["solve", "--bundle", bundle]) == 1
    assert message in capsys.readouterr().err


def test_solve_refuses_a_non_finite_observed_target(tmp_path, capsys):
    # the NaN used to reach solve_smooth, which died in an SVD; unobserved,
    # the same NaN is never read
    text = '{"target": [[1, NaN], [2, 4]], "mask": [[1, %d], [1, 1]], "lam": 0.5}'
    assert main(["solve", "--bundle", write(tmp_path, "nan.json", text % 1)]) == 1
    assert capsys.readouterr().err == "error: FitSpec b must be finite\n"
    code, rep = run(capsys, ["solve", "--bundle", write(tmp_path, "free.json", text % 0)])
    assert code == 0 and rep["outputs"]["status"] == "Converged"


@pytest.mark.parametrize(
    "S, message",
    [
        ({"kind": "hull", "points": [np.eye(2).tolist(), np.eye(3).tolist()]}, "one shape"),
        ({"kind": "trace_ball", "r": 1.0, "n": 2.5}, "positive integer"),
        ({"kind": "fantope", "k": 1.5, "n": 2}, "integer k"),
    ],
    ids=["hull-shapes", "trace-ball-n", "fantope-k"],
)
def test_a_bundle_with_a_malformed_set_is_refused(tmp_path, capsys, S, message):
    # the hull used to reach a numpy matmul error, and int() truncated n and k
    d = {"A": [[0.0, 0.0]], "B": [[0.0]], "h": {"kind": "indicator", "set": S}}
    bundle = write(tmp_path, "b.json", json.dumps(d))
    assert main(["cq-report", "--bundle", bundle]) == 1
    err = capsys.readouterr().err
    assert message in err and "matmul" not in err
