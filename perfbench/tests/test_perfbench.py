"""Tests of the benchmark's own arithmetic, oracles and tracer.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import sys

import numpy as np
import numpy.linalg
import pytest
import scipy.optimize

import oracles
from worker import tail
from tracer import Tracer, span_table, under


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c", "d"]
    # a [0, 100] holds b [10, 40] and c [50, 90]; c holds d [60, 70]
    spans = [
        (0, 0, 100, -1, 0),
        (1, 10, 40, 0, 0),
        (2, 50, 90, 0, 0),
        (3, 60, 70, 2, 0),
    ]
    tab = span_table(spans, names)
    assert tab["a"] == [1, 100, 30]
    assert tab["b"] == [1, 30, 30]
    assert tab["c"] == [1, 40, 30]
    assert tab["d"] == [1, 10, 10]
    assert sum(r[2] for r in tab.values()) == 100  # self times tile the root
    assert under(spans, names, "c") == [False, False, False, True]
    assert under(spans, names, "a") == [False, True, True, True]


def test_self_time_of_a_recursive_name_counts_each_level_once():
    names = ["f"]
    spans = [(0, 0, 50, -1, 0), (0, 5, 45, 0, 0), (0, 10, 20, 1, 0)]
    assert span_table(spans, names)["f"] == [3, 100, 50]


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = list(range(1, 101))
    assert tail(xs) == (90, 90.0, 10)
    value, pct, beyond = tail(list(range(11)))
    assert (value, beyond) == (0, 10) and pct == pytest.approx(100 / 11)
    assert tail(list(range(10))) is None


def test_tail_moves_below_ties_at_the_cut():
    xs = [1.0] * 5 + [2.0] * 20
    assert tail(xs) == (1.0, 20.0, 20)
    assert tail([3.0] * 30) is None


def _fantope_brute(s, k, steps):
    """min sum s_i^2 / (2 v_i) over a grid of 0 < v <= 1 with sum v <= k."""
    grid = np.linspace(1.0 / steps, 1.0, steps)
    V = np.array(list(itertools.product(grid, repeat=len(s))))
    V = V[V.sum(axis=1) <= k + 1e-12]
    return float(np.min(np.sum(np.asarray(s) ** 2 / (2.0 * V), axis=1)))


@pytest.mark.parametrize(
    "s,k",
    [((1.0, 0.5), 1), ((3.0, 1.0), 1), ((2.0, 2.0), 1), ((1.0, 0.7, 0.2), 1),
     ((1.0, 0.7, 0.2), 2), ((3.0, 0.1, 0.1), 2), ((1.0, 1.0, 1.0), 2)],
)
def test_fantope_oracle_matches_brute_force(s, k):
    want = oracles.p_fantope(np.array(s), k)
    brute = _fantope_brute(s, k, 400 if len(s) == 2 else 150)
    assert want <= brute + 1e-12  # the KKT point is a true minimum
    assert brute - want <= 2e-2 * (1.0 + want)  # and the grid closes in on it


def test_fantope_oracle_special_cases():
    # at most k nonzero singular values: V = I on their span
    assert oracles.p_fantope(np.array([2.0, 1.0, 0.0]), 2) == pytest.approx(2.5)
    # k = 1 reduces to the trace ball with r = 1 when no weight caps
    s = np.array([1.0, 0.8])
    assert oracles.p_fantope(s, 1) == pytest.approx(oracles.p_trace_ball(s, 1.0))
    v = oracles.fantope_weights(np.array([5.0, 1.0, 1.0]), 2)
    assert v[0] == 1.0 and v.sum() == pytest.approx(2.0)


def _bindings():
    """Every attribute of the modules and class the tracer patches."""
    import gmfkit
    import gmfkit.cli  # noqa: F401  (loads every layer)

    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "gmfkit" or name.startswith("gmfkit.")):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
    for owner in (numpy.linalg, scipy.optimize):
        for attr, obj in vars(owner).items():
            out[(owner.__name__, attr)] = obj
    out[("ProblemData", "__post_init__")] = gmfkit.gmf.ProblemData.__dict__["__post_init__"]
    return out


def test_uninstall_restores_every_binding():
    import gmfkit

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        for key in [("gmfkit", "eval_p"), ("gmfkit.infproj", "eval_p"), ("gmfkit.gmf", "sym"),
                    ("gmfkit.hset", "sym"), ("gmfkit.cli", "main"), ("numpy.linalg", "svd"),
                    ("numpy.linalg", "eigvalsh"), ("scipy.optimize", "minimize"),
                    ("scipy.optimize", "nnls"), ("ProblemData", "__post_init__")]:
            assert key in changed, key
        pd = gmfkit.ProblemData(np.zeros((1, 2)), np.zeros((1, 1)))
        gmfkit.eval_gmf(pd, np.ones((2, 1)), np.eye(2))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    tab = span_table(tracer.spans, tracer.names)
    assert tab["gmf.eval_gmf"][0] == 1 and tab["gmf.ProblemData"][0] == 1
    assert tab["linalg.svd"][0] >= 1
    roots = sum(t1 - t0 for _, t0, t1, parent, _ in tracer.spans if parent < 0)
    assert sum(r[2] for r in tab.values()) == roots


def test_minimize_spans_are_named_by_method():
    tracer = Tracer()
    tracer.install()
    try:
        scipy.optimize.minimize(lambda x: float(x @ x), np.ones(2), method="L-BFGS-B")
        scipy.optimize.minimize(lambda x: float(x @ x), np.ones(2), method="SLSQP")
    finally:
        tracer.uninstall()
    tab = span_table(tracer.spans, tracer.names)
    assert tab["scipyopt.lbfgsb"][0] == 1 and tab["scipyopt.slsqp"][0] == 1
    assert tracer.counters["scipyopt.lbfgsb.nit"] >= 1


def test_pgrid_warmup_leaves_the_timed_problems_cold(tmp_path):
    import gmfkit.infproj

    import workloads

    cache = getattr(gmfkit.infproj, "_CANDIDATE_CACHE", None)
    if cache is None:
        pytest.skip("gmfkit no longer caches descent starts")
    cache.clear()
    wl = workloads.build_pgrid(0, str(tmp_path))
    for op in wl.warmup:
        op.run()
    warm_keys = set(cache)
    for op in wl.ops:
        op.run()
    # 7 sets x m in {1, 2}: every timed problem added its own entry
    assert len(set(cache) - warm_keys) == 14
    cache.clear()


def test_inputs_depend_only_on_the_seed(tmp_path):
    import workloads

    def fingerprint(seed):
        wl = workloads.build_gmf_scale(seed, str(tmp_path))
        return [float(op.run()) for op in wl.ops if op.kind == "eval_gmf"]

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


def _summary(passes, fast=(0.002, 0.001)):
    """summarize() over 12 inputs; input 1 fails from its second pass on."""
    import worker
    from workloads import Op, Outcome

    ops = [Op("k", None, None) for _ in range(12)]
    lat, recs, outcomes = [], [], []
    for p in range(passes):
        for i in range(12):
            t = 0.004 if i >= 2 else fast[min(p, 1)]
            bad = i == 1 and p >= 1
            lat.append(t)
            recs.append((i, None, None))
            outcomes.append(Outcome(not bad, err=0.0, cause="oracle" if bad else None))
    return worker.summarize(ops, lat, recs, sum(lat), outcomes)


def test_summary_times_every_input_at_its_fastest_pass():
    res = _summary(2)
    assert (res["attempted"], res["failed"], res["inputs_timed"]) == (12, 1, 12)
    assert res["ops_per_s"] == pytest.approx(1e3 / 4.0 ** (10 / 12))  # geometric mean
    assert res["mix_ops_per_s"] == pytest.approx(12 / 0.042)
    assert res["op_ms_p50"] == pytest.approx(4.0)
    assert res["failed_share"] == pytest.approx(1 / 12)
    assert res["failed_ms_total"] == pytest.approx(1.0)  # input 1 at its fastest
    assert res["fail_causes"] == {"oracle": 1}
    assert (res["calls"], res["failed_calls"]) == (24, 1)


def test_failure_counts_do_not_depend_on_the_number_of_passes():
    two, five = _summary(2), _summary(5)
    for key in ("attempted", "failed", "failed_share", "ops_per_s", "op_ms_p50"):
        assert two[key] == pytest.approx(five[key]), key
    assert (five["calls"], five["failed_calls"]) == (60, 4)


def test_timed_loop_runs_two_passes_and_empties_the_cache_before_each():
    import gmfkit.infproj

    import worker
    from workloads import Op

    cache = getattr(gmfkit.infproj, "_CANDIDATE_CACHE", None)
    if cache is None:
        pytest.skip("gmfkit no longer caches descent starts")
    seen = []

    def run():
        seen.append(len(cache))
        cache[("perfbench-test", len(seen))] = None

    cache[("perfbench-test", "stale")] = None
    lat, recs, _, cut = worker.timed_loop([Op("k", run, None)] * 3, seconds=0.0)
    assert not cut and len(lat) == 6  # a zero budget still times each input twice
    assert seen == [0, 1, 2, 0, 1, 2]
    cache.clear()
