"""gmfkit benchmark: one command, four oracle-checked workloads.

    python3 perfbench/run.py --workload pgrid --seed 1 --seconds 20 --trace 0

Run from the root of a gmfkit checkout; gmfkit is imported from its
src/.  Each workload runs in fresh worker processes (worker.py) with
OpenBLAS, OpenMP and MKL pinned to one thread: with the library
default, small SVDs on a shared 2-core machine measured the scheduler
instead of gmfkit.  The worker is started SETUP_RUNS extra times and
stopped once its problems are built, so set-up time is a median.

With --trace 0 the last output line carries the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run (see README.md).
`--workload all` runs the four workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("pgrid", "cq_sweep", "gmf_scale", "solve_path")
SETUP_RUNS = 4  # set-up-only workers, besides the measuring one
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# printed beside the end-to-end metrics; they can be 0, so BENCHMARK.json
# gates none of them and the traced run reports them as e2e.*
INFO_UNITS = {"failed_share": "ratio", "oracle_err_max": "rel", "undecided_share": "ratio"}


def metric_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("GMFKIT_SEED", None)  # the CLI's default seed comes from here
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p]),
    )
    return env


def spawn(args, timeout):
    """Run one worker; returns (set-up seconds, stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    ready = next((ln for ln in lines if ln.startswith("READY ")), None)
    if ready is None:
        raise RuntimeError("worker never reported READY")
    return (int(ready.split()[1]) - t0) / 1e9, lines


def run_workload(name, seed, seconds, trace, deadline):
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--workdir", workdir]
        setups = []
        for _ in range(SETUP_RUNS):
            setups.append(spawn(base + ["--setup-only"], deadline - time.monotonic())[0])
        extra = ["--trace", str(trace)]
        if trace:
            extra += ["--spans-out", os.path.join(OUT, f"spans-{name}-seed{seed}.csv")]
        setup, lines = spawn(base + extra, deadline - time.monotonic())
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(lines[-1])
    if not os.path.abspath(res["gmfkit_file"]).startswith(SRC + os.sep):
        raise RuntimeError(f"gmfkit was imported from {res['gmfkit_file']}, not {SRC}")
    res["setup_s"] = statistics.median(setups)
    res["setup_samples_s"] = setups
    return res


def report(name, res, units):
    """Print the human-readable lines; return the metric values."""
    e2e_units, layer_units = units
    print(f"== {name}: {res['attempted']} inputs, {res['failed']} failed; {res['calls']} calls, "
          f"{res['failed_calls']} failed, {res['passes']:.2f} passes in {res['elapsed_s']:.2f} s")
    print(f"{name} machine: " + json.dumps(res["machine"]))
    for key, unit in {**e2e_units, **INFO_UNITS}.items():
        note = ""
        if key == "op_ms_tail":
            note = (f"  (p{res['tail_percentile']:.2f} of {res['inputs_timed']} per-input minima, "
                    f"{res['tail_beyond']} beyond it)")
        print(f"{name} {key} = {res[key]:.6g} {unit}{note}")
    print(f"{name} detail: " + json.dumps({
        "fail_causes": res["fail_causes"],
        "failed_ms_total": res["failed_ms_total"],
        "mix_ops_per_s": res["mix_ops_per_s"],
        "ms_p50_by_kind": res["ms_p50_by_kind"],
        "setup_samples_s": res["setup_samples_s"],
        "cut_short": res["cut_short"],
    }))
    if "per_layer" in res:
        for key, unit in layer_units.items():
            print(f"{name} {key} = {res['per_layer'][key]:.6g} {unit}")
        print(f"{name} traced: " + json.dumps(res["traced"]))
        return {k: {"value": res["per_layer"][k], "unit": u} for k, u in layer_units.items()}
    return {k: {"value": res[k], "unit": u} for k, u in e2e_units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "gmfkit", "__init__.py")):
        print(f"error: no gmfkit sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    units = metric_units()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        for key, v in report(name, res, units).items():
            metrics[prefix + key] = v
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["judged"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
