"""One benchmark process: build a workload, warm up, time it, check it.

Started by run.py with the BLAS thread count pinned to 1.  Prints
"READY <CLOCK_MONOTONIC ns>" once the interpreter is up, gmfkit is
imported and the problem objects are built: run.py measures set-up
time up to that line.  With --setup-only it stops there; otherwise the
last line of its output is one JSON object with the measurements.

The timed loop is closed: one caller, each call sent when the previous
one returns.  It runs whole passes over the workload's fixed input mix
until --seconds have passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time
from collections import Counter

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# after the second pass, a pass is not started when it would end past
# OVERRUN x --seconds
OVERRUN = 1.25
# a pass that overruns the budget this much is cut short, so a run
# always ends well within 180 s
HARD_LIMIT_S = 30.0


def reset_caches():
    """Empty gmfkit's module-level descent-start cache (if it has one).

    Done before every pass, outside any timed call, so each pass sees
    the same sequence of cold and warm calls and each input's fastest
    pass still carries the cost of filling the cache."""
    import gmfkit.infproj

    cache = getattr(gmfkit.infproj, "_CANDIDATE_CACHE", None)
    if cache is not None:
        cache.clear()


def timed_loop(ops, seconds, tracer=None):
    """Run whole passes over ops for about `seconds`, at least two.

    Returns (latencies s, records, elapsed s, cut short); a record is
    (op index, output, exception)."""
    lat, recs = [], []
    clock = time.perf_counter
    start = clock()
    passes = 0
    while True:
        reset_caches()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(lat)
            t0 = clock()
            try:
                out, exc = op.run(), None
            except Exception as e:  # a failing call is counted, not fatal
                out, exc = None, e
            t1 = clock()
            lat.append(t1 - t0)
            recs.append((i, out, exc))
            if t1 - start > seconds + HARD_LIMIT_S:
                return lat, recs, t1 - start, True
        passes += 1
        elapsed = clock() - start
        # every input is timed at least twice, so that its fastest call
        # is a minimum over two moments of the machine's load
        if passes < 2:
            continue
        if elapsed >= seconds or elapsed * (passes + 1) / passes > OVERRUN * seconds:
            return lat, recs, elapsed, False


def tail(xs):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond), or None when there are
    too few samples.  With n samples sorted ascending, the value is the
    k-th smallest for the largest k with n - k samples strictly above it
    and n - k >= TAIL_BEYOND; its percentile is 100 k / n."""
    s = sorted(xs)
    k = len(s) - TAIL_BEYOND
    while k > 0 and s[k - 1] == s[k]:  # ties at the cut leave fewer beyond it
        k -= 1
    if k <= 0:
        return None
    return s[k - 1], 100.0 * k / len(s), len(s) - k


def check_records(ops, recs):
    """(outcome of every timed call, whether every oracle could judge).

    A call fails when it raises, exits with the wrong code or misses its
    oracle; an oracle that fails its own consistency check judges
    nothing, and the run is then reported as not correct."""
    from oracles import OracleError
    from workloads import Outcome

    out, judged = [], True
    for i, res, exc in recs:
        if exc is not None:
            out.append(Outcome(False, cause=f"raised {type(exc).__name__}: {exc}"[:120]))
            continue
        try:
            out.append(ops[i].check(res))
        except OracleError as e:
            print(f"oracle error: {e}", file=sys.stderr)
            out.append(Outcome(False, cause="oracle error"))
            judged = False
        except (ValueError, KeyError, TypeError) as e:  # malformed output
            out.append(Outcome(False, cause=f"unreadable output: {type(e).__name__}"))
    return out, judged


def summarize(ops, lat, recs, elapsed, outcomes):
    """End-to-end numbers of one timed loop.

    Each input's latency is its fastest call over the run's passes, for
    every input of the fixed mix, failed ones included.  On a shared
    machine, load from other tenants only ever slows a call: in 12 s
    runs of gmf_scale on a shared 2-core VM, throughput from per-input
    medians moved by +-20% between runs of one seed, from per-input
    minima by +-4%.

    `ops_per_s` is one over the geometric mean of these latencies, so
    every input weighs alike: about 3% of gmf_scale instances draw an
    eval_p whose fast path bails into a descent longer than one pass
    over the rest of the mix, and a sum of latencies (printed as
    mix_ops_per_s) would follow how many of those a seed drew instead
    of gmfkit's speed.

    `attempted` counts the inputs called and `failed` those with at
    least one failed call, so neither depends on how many passes fit in
    the run; the per-call counts are detail."""
    times, bad = {}, set()
    for (i, _, _), t, o in zip(recs, lat, outcomes):
        times.setdefault(i, []).append(1e3 * t)
        if not o.ok:
            bad.add(i)
    fastest = {i: min(ts) for i, ts in times.items()}
    ms = sorted(fastest.values())
    tl = tail(ms)
    errs = [o.err for o in outcomes if o.err is not None and math.isfinite(o.err)]
    decisions = sum(o.decisions for o in outcomes)
    by_kind = {}
    for i, t in fastest.items():
        by_kind.setdefault(ops[i].kind, []).append(t)
    return {
        "attempted": len(fastest),
        "failed": len(bad),
        "failed_inputs": sorted(bad),
        "ops_per_s": 1e3 / statistics.geometric_mean(ms),
        "mix_ops_per_s": 1e3 * len(ms) / sum(ms),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tl[0] if tl else ms[-1],
        "tail_percentile": tl[1] if tl else 100.0,
        "tail_beyond": tl[2] if tl else 0,
        "inputs_timed": len(ms),
        "failed_share": len(bad) / len(fastest),
        "oracle_err_max": max(errs) if errs else 0.0,
        "undecided_share": sum(o.undecided for o in outcomes) / decisions if decisions else 0.0,
        "elapsed_s": elapsed,
        "failed_ms_total": sum(fastest[i] for i in bad),
        "calls": len(outcomes),
        "failed_calls": sum(not o.ok for o in outcomes),
        "passes": len(lat) / len(ops),
        "fail_causes": dict(Counter(o.cause for o in outcomes if not o.ok)),
        "ms_p50_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }


def layer_metrics(tracer, n_ops):
    """Per-layer metrics of a traced loop, per timed call."""
    import gmfkit.infproj
    from tracer import span_table, under

    spans, names = tracer.spans, tracer.names
    tab = span_table(spans, names)
    cnt = tracer.counters

    def calls(*keys):
        return sum(tab[k][0] for k in keys if k in tab) / n_ops

    def self_ms(layer):
        return sum(r[2] for k, r in tab.items() if k.split(".")[0] == layer) / 1e6 / n_ops

    in_gmf = under(spans, names, "gmf.eval_gmf")
    in_evp = under(spans, names, "infproj.eval_p")
    fact_in_gmf = gmf_in_evp = 0
    for i, s in enumerate(spans):
        name = names[s[0]]
        if in_gmf[i] and name.startswith("linalg."):
            fact_in_gmf += 1
        elif in_evp[i] and name == "gmf.eval_gmf":
            gmf_in_evp += 1
    n_gmf = tab.get("gmf.eval_gmf", [0])[0]
    return {
        "linalg.svd.calls": calls("linalg.svd"),
        "linalg.eigh.calls": calls("linalg.eigh", "linalg.eigvalsh"),
        "linalg.solve.calls": calls("linalg.solve", "linalg.inv", "linalg.slogdet"),
        "linalg.self_ms": self_ms("linalg"),
        "linalg.flops_computed": sum(v for k, v in cnt.items() if k.endswith(".flops")) / n_ops,
        "linalg.factorizations_per_gmf_eval": fact_in_gmf / n_gmf if n_gmf else 0.0,
        "scipyopt.slsqp.calls": calls("scipyopt.slsqp"),
        "scipyopt.slsqp.nit": cnt["scipyopt.slsqp.nit"] / n_ops,
        "scipyopt.lbfgsb.nit": cnt["scipyopt.lbfgsb.nit"] / n_ops,
        "scipyopt.lbfgsb.nfev": cnt["scipyopt.lbfgsb.nfev"] / n_ops,
        "scipyopt.nnls.calls": calls("scipyopt.nnls"),
        "scipyopt.self_ms": self_ms("scipyopt"),
        "numlin.pinv.calls": calls("numlin.pinv"),
        "numlin.range_contains.calls": calls("numlin.range_contains"),
        "numlin.sym.calls": calls("numlin.sym"),
        "numlin.self_ms": self_ms("numlin"),
        "gmf.eval_gmf.calls": calls("gmf.eval_gmf"),
        "gmf.in_KA.calls": calls("gmf.in_KA"),
        "gmf.problemdata_ms": tab.get("gmf.ProblemData", [0, 0])[1] / 1e6 / n_ops,
        "gmf.self_ms": self_ms("gmf"),
        "hset.project.calls": calls("hset.project"),
        "hset.member.calls": calls("hset.member"),
        "hset.support.calls": calls("hset.support"),
        "hset.psd_cap_support.calls": calls("hset.psd_cap_support"),
        "hset.self_ms": self_ms("hset"),
        "infproj.eval_p.calls": calls("infproj.eval_p"),
        "infproj.iters": cnt["infproj.iters"] / n_ops,
        "infproj.step_accept_ratio": cnt["infproj.iters"] / gmf_in_evp if gmf_in_evp else 0.0,
        "infproj.cq_report.calls": calls("infproj.cq_report"),
        "infproj.candidate_cache_entries": float(len(getattr(gmfkit.infproj, "_CANDIDATE_CACHE", ()))),
        "infproj.self_ms": self_ms("infproj"),
        "vgf.vgf_conj.calls": calls("vgf.vgf_conj"),
        "vgf.self_ms": self_ms("vgf"),
        "smooth.stages": cnt["smooth.stages"] / n_ops,
        "smooth.cert_gap_min": tracer.minima.get("smooth.cert_gap", 0.0),
        "smooth.self_ms": self_ms("smooth"),
        "cli.main.calls": calls("cli.main"),
        "cli.self_ms": self_ms("cli"),
    }


def write_spans(path, tracer):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["op", "name", "start_ns", "end_ns", "parent"])
        for sid, t0, t1, parent, op in tracer.spans:
            w.writerow([op, tracer.names[sid], t0, t1, parent])


def svd50_ms(reps=30):
    import numpy as np

    M = np.random.default_rng(50).standard_normal((50, 50))
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.linalg.svd(M)
        ts.append(1e3 * (time.perf_counter() - t0))
    return sorted(ts)[reps // 2]


def threaded_diagnostics(wl, recs):
    """Time a 50x50 SVD and re-run the solve_path certificates with
    OpenBLAS at its default thread count, then pin it back to one.

    These show defects that thread oversubscription causes; they are
    reported, never gated on."""
    import gmfkit as gk
    import machine
    from workloads import REL_TOL

    one = svd50_ms()
    if not machine.set_blas_threads(machine.default_blas_threads()):
        return {"linalg.svd50_ms_1thread": one, "linalg.svd50_ms_default_threads": -1.0,
                "smooth.threaded_cert_failures": -1.0}
    try:
        many = svd50_ms()
        failures = 0
        last = {i: out for i, out, exc in recs if exc is None}
        for i, out in sorted(last.items()):
            meta = wl.ops[i].meta
            if "fit" not in meta:
                continue
            X, V = out[0], out[1]
            F, _, gap = gk.objective_certificate(meta["fit"], meta["U"], X, V)
            failures += gap < -REL_TOL * (1.0 + abs(F))
    finally:
        machine.set_blas_threads(1)
    return {"linalg.svd50_ms_1thread": one, "linalg.svd50_ms_default_threads": many,
            "smooth.threaded_cert_failures": float(failures)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import gmfkit
    import machine
    import workloads
    from oracles import OracleError

    wl = workloads.BUILD[args.workload](args.seed, args.workdir)
    print(f"READY {time.monotonic_ns()}", flush=True)
    if args.setup_only:
        return 0

    judged = True
    for op in wl.ops:
        try:
            op.prepare()
        except OracleError as e:
            print(f"oracle error: {e}", file=sys.stderr)
            judged = False
    for op in wl.warmup:
        try:
            op.run()
        except Exception:  # warm-up inputs are not checked
            pass

    lat, recs, elapsed, cut = timed_loop(wl.ops, args.seconds)
    outcomes, ok = check_records(wl.ops, recs)
    result = summarize(wl.ops, lat, recs, elapsed, outcomes)
    result["judged"] = judged and ok
    result["cut_short"] = cut
    result["gmfkit_file"] = gmfkit.__file__
    result["machine"] = machine.describe(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            t_lat, t_recs, t_elapsed, _ = timed_loop(wl.ops, args.seconds, tracer)
        finally:
            tracer.uninstall()
        t_out, ok = check_records(wl.ops, t_recs)
        result["judged"] = result["judged"] and ok
        traced = summarize(wl.ops, t_lat, t_recs, t_elapsed, t_out)
        layers = layer_metrics(tracer, len(t_lat))
        layers["trace.overhead_ratio"] = result["ops_per_s"] / traced["ops_per_s"]
        for key in ("failed_share", "oracle_err_max", "undecided_share"):
            layers[f"e2e.{key}"] = result[key]
        layers.update(threaded_diagnostics(wl, recs))
        result["per_layer"] = layers
        result["traced"] = {k: traced[k] for k in ("attempted", "failed", "calls", "failed_calls",
                                                   "ops_per_s", "fail_causes")}
        # an input fails when any of its calls failed, traced or not
        result["failed_inputs"] = sorted(set(result["failed_inputs"]) | set(traced["failed_inputs"]))
        result["failed"] = len(result["failed_inputs"])
        result["attempted"] = max(result["attempted"], traced["attempted"])  # both run ops in order
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            write_spans(args.spans_out, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
