"""Record the criterion-13 sweep's outputs from one source tree, and
compare two such records row by row.

    python tools/sweep_identity.py dump SRC OUT [--seeds 0-4]
    python tools/sweep_identity.py compare A B

`dump` imports gmfkit from the directory SRC (the `src` folder of a
checkout), pins BLAS to one thread, and for every problem i of
`selftest.criterion_13_problems(seed)` evaluates at
X = default_rng([seed, i]).standard_normal((n, m)):

- eval_p: path, status, value, iters, V, Y, unbounded_direction and
  unbounded_base;
- eval_p_conj at eval_p's Y (when there is one);
- dual_value;
- every cq_report verdict and its notes;
- dom_p_member;
- for S = h.set and G = XX^T/2: S.contains_zero, S.dominates(G) and
  hset.gauge(S, G), or the class name of the exception gauge raises.

It pickles one dict per row to OUT.  `compare` first prints, for each
record, the counts of (eval_p.path, eval_p.status), of dom_p_member's
status, of eval_p_conj's status (exact, undecided, or none where eval_p
gave no Y) and of the undecided verdicts per CQ rule, so a change can
quote the shift.  It then prints, per field, the rows whose values differ (NaN
equal to NaN, arrays by value and shape) and exits 1 when any row
differs, 0 otherwise.  For a field whose
differing values are numbers of one shape (tuples walked entry by entry,
their other entries equal), it also prints the largest absolute and the
largest relative difference, |a - b| / max(|a|, |b|), over those rows, so
a rounding-level change can be told from a real one.  For dom_p_member it
also counts the rows whose (found, status) moved, by transition, apart
from the rows where only the witness V changed.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from collections import Counter

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _row(prob, X):
    from gmfkit.hset import gauge
    from gmfkit.infproj import cq_report, dom_p_member, dual_value, eval_p, eval_p_conj

    row = {}
    pe = eval_p(prob, X)
    for name in ("path", "status", "value", "iters", "V", "Y", "unbounded_direction", "unbounded_base"):
        row[f"eval_p.{name}"] = getattr(pe, name)
    row["eval_p_conj"] = None if pe.Y is None else eval_p_conj(prob, pe.Y)
    row["dual_value"] = dual_value(prob, X)
    rep = cq_report(prob)
    for name in ("pcq", "spcq", "bpcq", "ccq", "sccq", "notes"):
        row[f"cq.{name}"] = getattr(rep, name)
    row["dom_p_member"] = dom_p_member(prob, X)
    S, tol, G = prob.h.set, prob.tol, 0.5 * X @ X.T
    G = 0.5 * (G + G.T)
    row["set.contains_zero"] = S.contains_zero(tol)
    row["set.dominates"] = S.dominates(G, tol)
    try:
        row["set.gauge"] = gauge(S, G, tol)
    except Exception as exc:
        row["set.gauge"] = type(exc).__name__
    return row


def dump(src: str, out: str, seeds: list[int]) -> None:
    for var in _THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from gmfkit.selftest import criterion_13_problems

    rows = {}
    for seed in seeds:
        for i, prob in enumerate(criterion_13_problems(seed)):
            X = np.random.default_rng([seed, i]).standard_normal((prob.pd.n, prob.pd.m))
            rows[(seed, i)] = _row(prob, X)
        print(f"seed {seed}: {i + 1} rows", file=sys.stderr)
    with open(out, "wb") as f:
        pickle.dump(rows, f)


def _same(a, b) -> bool:
    import numpy as np

    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, (np.ndarray, float, np.floating)) or isinstance(b, (np.ndarray, float, np.floating)):
        if a is None or b is None:
            return a is b
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))
    return a == b


def _gaps(a, b):
    """(largest absolute, largest relative) difference between the numbers
    of a and b, or None where they differ in anything but numeric value."""
    import numpy as np

    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        parts = [_gaps(x, y) for x, y in zip(a, b)]
        if len(a) != len(b) or None in parts:
            return None
        return tuple(max(p[i] for p in parts) for i in range(2)) if parts else (0.0, 0.0)
    number = (int, float, np.integer, np.floating, np.ndarray)
    if not (isinstance(a, number) and isinstance(b, number)) or isinstance(a, bool) or isinstance(b, bool):
        return (0.0, 0.0) if _same(a, b) else None
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return None
    if a.size == 0:
        return 0.0, 0.0
    with np.errstate(invalid="ignore"):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        d = np.where(same, 0.0, np.abs(a - b))
        d = np.where(np.isnan(d), np.inf, d)  # NaN against a number
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(d == 0.0, 0.0, np.where(np.isfinite(d), d / np.where(scale > 0.0, scale, 1.0), np.inf))
    return float(d.max()), float(rel.max())


_CQ_RULES = ("pcq", "spcq", "bpcq", "ccq", "sccq")


def _tally(rows: dict) -> list[str]:
    """Lines counting one record's (eval_p.path, eval_p.status) pairs,
    dom_p_member statuses, eval_p_conj statuses ("none" where eval_p
    gave no Y) and undecided verdicts per CQ rule."""
    paths = Counter(f"{r.get('eval_p.path')}/{r.get('eval_p.status')}" for r in rows.values())
    dom = Counter(r["dom_p_member"][2] for r in rows.values() if "dom_p_member" in r)
    conj = Counter("none" if r["eval_p_conj"] is None else r["eval_p_conj"][1] for r in rows.values() if "eval_p_conj" in r)
    undecided = {cq: sum(r.get(f"cq.{cq}") == "undecided" for r in rows.values()) for cq in _CQ_RULES}
    return [
        "eval_p path/status: " + ", ".join(f"{k} {n}" for k, n in sorted(paths.items())),
        "dom_p_member status: " + ", ".join(f"{k} {n}" for k, n in sorted(dom.items())),
        "eval_p_conj status: " + ", ".join(f"{k} {n}" for k, n in sorted(conj.items())),
        "undecided cq: " + ", ".join(f"{k} {n}" for k, n in undecided.items()) + f" (total {sum(undecided.values())})",
    ]


def _dom_moves(a: dict, b: dict, keys: list) -> str:
    """One line: the dom_p_member rows among keys whose (found, status)
    moved, counted by status transition, and those whose witness alone
    changed."""
    none = (None, None, None)
    pairs = [(a[key].get("dom_p_member", none), b[key].get("dom_p_member", none)) for key in keys]
    moved = Counter(f"{old[2]} -> {new[2]}" for old, new in pairs if old[::2] != new[::2])
    shown = ", ".join(f"{k} {n}" for k, n in sorted(moved.items())) or "none"
    return f"dom_p_member status changes: {shown}; witness-only changes: {len(keys) - sum(moved.values())}"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, "rb") as f:
        a = pickle.load(f)
    with open(path_b, "rb") as f:
        b = pickle.load(f)
    for path, rows in ((path_a, a), (path_b, b)):
        for line in _tally(rows):
            print(f"{path}: {line}")
    if a.keys() != b.keys():
        print(f"row sets differ: {len(a)} against {len(b)} rows")
        return 1
    diffs = {}
    for key in a:
        for field in a[key].keys() | b[key].keys():
            if not _same(a[key].get(field), b[key].get(field)):
                diffs.setdefault(field, []).append(key)
    for field in sorted(diffs):
        keys = diffs[field]
        shown = ", ".join(f"{s}/{i}" for s, i in keys[:10])
        gaps = [_gaps(a[key].get(field), b[key].get(field)) for key in keys]
        size = ""
        if None not in gaps:
            size = f"; max abs diff {max(g[0] for g in gaps):.3g}, max rel diff {max(g[1] for g in gaps):.3g}"
        print(f"{field}: {len(keys)} rows differ ({shown}{', ...' if len(keys) > 10 else ''}){size}")
    if "dom_p_member" in diffs:
        print(_dom_moves(a, b, diffs["dom_p_member"]))
    print(f"{len(a)} rows, {sum(map(len, diffs.values()))} differing fields")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="record the sweep's outputs from one source tree")
    d.add_argument("src", help="directory holding the gmfkit package")
    d.add_argument("out", help="pickle file to write")
    d.add_argument("--seeds", default="0-4", help="seeds, as in 0-4 or 0,2 (default 0-4)")
    c = sub.add_parser("compare", help="print the rows that differ between two records")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        dump(args.src, args.out, _seeds(args.seeds))
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
