import importlib.util
import pathlib
import pickle

import numpy as np

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "sweep_identity.py"
_spec = importlib.util.spec_from_file_location("sweep_identity", _TOOL)
sweep_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_identity)


def _record(ray_status, ray_dom, sccq, conj="undecided"):
    """Two rows as `dump` records them, the second varied by the arguments."""
    base = {"eval_p.path": "loewner", "eval_p.status": "finite", "eval_p.value": 1.5, "eval_p.V": np.eye(2)}
    base["eval_p_conj"] = (np.nan, "undecided") if conj == "undecided" else (0.5, conj)
    base.update({f"cq.{cq}": "holds" for cq in ("pcq", "spcq", "bpcq", "ccq", "sccq")})
    base["dom_p_member"] = (True, np.eye(2), "witness")
    ray = dict(base, **{"eval_p.path": "ray", "eval_p.status": ray_status, "eval_p.value": np.inf, "eval_p.V": None})
    ray.update({"dom_p_member": (False, None, ray_dom), "cq.pcq": "undecided", "cq.sccq": sccq, "eval_p_conj": None})
    return {(0, 0): base, (0, 1): ray}


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_bytes(pickle.dumps(record))
    return str(path)


def test_compare_prints_the_counts_of_each_record_and_its_differences(tmp_path, capsys):
    old = _write(tmp_path, "old.pkl", _record("infeasible", "sampled", "undecided"))
    same = _write(tmp_path, "same.pkl", _record("infeasible", "sampled", "undecided"))
    new = _write(tmp_path, "new.pkl", _record("infeasible", "exhaustive", "holds"))
    assert sweep_identity.main(["compare", old, same]) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"{old}: eval_p path/status: loewner/finite 1, ray/infeasible 1" in out
    assert f"{old}: dom_p_member status: sampled 1, witness 1" in out
    assert f"{old}: eval_p_conj status: none 1, undecided 1" in out
    assert f"{same}: undecided cq: pcq 1, spcq 0, bpcq 0, ccq 0, sccq 1 (total 2)" in out
    assert out[-1] == "2 rows, 0 differing fields"
    assert sweep_identity.main(["compare", old, new]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"{new}: dom_p_member status: exhaustive 1, witness 1" in out
    assert f"{new}: undecided cq: pcq 1, spcq 0, bpcq 0, ccq 0, sccq 0 (total 1)" in out
    assert "cq.sccq: 1 rows differ (0/1)" in out and "dom_p_member: 1 rows differ (0/1)" in out
    assert "dom_p_member status changes: sampled -> exhaustive 1; witness-only changes: 0" in out
    assert out[-1] == "2 rows, 2 differing fields"


def test_compare_tells_a_new_witness_from_a_new_answer(tmp_path, capsys):
    old = _record("infeasible", "sampled", "undecided")
    new = _record("infeasible", "sampled", "undecided")
    new[(0, 0)] = dict(new[(0, 0)], dom_p_member=(True, 2.0 * np.eye(2), "witness"))
    new[(0, 1)] = dict(new[(0, 1)], dom_p_member=(True, np.eye(2), "witness"))
    assert sweep_identity.main(["compare", _write(tmp_path, "old.pkl", old), _write(tmp_path, "new.pkl", new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "dom_p_member: 2 rows differ (0/0, 0/1)" in out
    assert "dom_p_member status changes: sampled -> witness 1; witness-only changes: 1" in out


def test_compare_counts_the_conjugates_that_move_from_undecided_to_exact(tmp_path, capsys):
    old = _write(tmp_path, "old.pkl", _record("infeasible", "sampled", "undecided"))
    new = _write(tmp_path, "new.pkl", _record("infeasible", "sampled", "undecided", conj="exact"))
    assert sweep_identity.main(["compare", old, new]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"{old}: eval_p_conj status: none 1, undecided 1" in out
    assert f"{new}: eval_p_conj status: exact 1, none 1" in out
    assert "eval_p_conj: 1 rows differ (0/0)" in out
