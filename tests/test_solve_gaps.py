import importlib.util
import pathlib

from gmfkit.numlin import Tolerances

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "solve_gaps.py"
_spec = importlib.util.spec_from_file_location("solve_gaps", _TOOL)
solve_gaps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_gaps)


def test_the_n8_solves_of_one_seed_converge_within_conj_rel():
    rows = solve_gaps.solve_gaps(1, {8: 10})
    assert [r[0] for r in rows] == [8] * 10
    assert all(status == "Converged" for _, status, _, _ in rows)
    assert max(gap for *_, gap in rows) <= Tolerances().conj_rel
    line = solve_gaps.summary("seed 1", rows)
    assert line.startswith("seed 1: 10 solves, ") and ", Converged 10; relative gap max " in line


def test_no_seed_prints_the_usage(capsys):
    assert solve_gaps.main([]) == 2
    assert "usage: python tools/solve_gaps.py SEED" in capsys.readouterr().err
