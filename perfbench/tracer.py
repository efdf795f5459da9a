"""Outside-in tracing: spans around the public functions of each layer.

`Tracer.install()` replaces every binding of a layer's public function,
in every gmfkit module and on numpy.linalg and scipy.optimize, with a
wrapper that records a span (name, start, end, parent span, op id).
Spans stay in memory; `uninstall()` puts every original binding back.
Nothing in gmfkit changes: the wrappers live here.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy.linalg
import scipy.optimize

# gmfkit modules, in the order of the layer table; selftest is the
# acceptance suite and is not a layer of any workload
GMFKIT_LAYERS = ("numlin", "gmf", "hset", "infproj", "vgf", "smooth", "cli")

# numpy.linalg factorizations (LAPACK) and their flop counts from the
# argument shapes: standard dense counts (Golub & Van Loan), labelled
# "computed" because they are not measured.
LINALG_FUNCS = ("svd", "eigh", "eigvalsh", "solve", "inv", "slogdet")
_MINIMIZE_NAMES = {"slsqp": "scipyopt.slsqp", "l-bfgs-b": "scipyopt.lbfgsb"}


def _batch_and_tail(shape):
    batch = 1
    for d in shape[:-2]:
        batch *= d
    return batch, shape[-2], shape[-1]


def linalg_flops(func: str, args, kwargs) -> float:
    a = getattr(args[0], "shape", None) if args else None
    if a is None or len(a) < 2:
        return 0.0
    batch, r, c = _batch_and_tail(a)
    if func == "svd":
        p, q = min(r, c), max(r, c)
        if not kwargs.get("compute_uv", True):
            f = 4.0 * q * p * p - 4.0 * p**3 / 3.0
        elif kwargs.get("full_matrices", True):
            f = 4.0 * q * q * p + 8.0 * q * p * p + 9.0 * p**3
        else:
            f = 6.0 * q * p * p + 11.0 * p**3
    elif func == "eigh":
        f = 9.0 * r**3
    elif func == "eigvalsh":
        f = 4.0 * r**3 / 3.0
    elif func == "solve":
        b = getattr(args[1], "shape", (r,)) if len(args) > 1 else (r,)
        nrhs = b[-1] if len(b) > 1 else 1
        f = 2.0 * r**3 / 3.0 + 2.0 * r * r * nrhs
    elif func == "inv":
        f = 2.0 * r**3
    else:  # slogdet: one LU
        f = 2.0 * r**3 / 3.0
    return batch * f


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent span index or -1, op id)
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self.counters = defaultdict(float)
        self.minima: dict[str, float] = {}
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, name, fn, after=None, namer=None):
        """A wrapper around fn that records one span per call.

        after(result, args, kwargs) adds counters from the result;
        namer(args, kwargs) picks the span name per call."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                sid = self._name_id(namer(args, kwargs)) if namer else nid
                spans[i] = (sid, t0, t1, parent, self.op)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- wrappers with counters -------------------------------------------

    def _after_linalg(self, func):
        key = f"linalg.{func}.flops"

        def after(result, args, kwargs):
            self.counters[key] += linalg_flops(func, args, kwargs)

        return after

    @staticmethod
    def _minimize_name(args, kwargs):
        return _MINIMIZE_NAMES.get(str(kwargs.get("method", "")).lower(), "scipyopt.minimize")

    def _after_minimize(self, result, args, kwargs):
        name = self._minimize_name(args, kwargs)
        self.counters[f"{name}.nit"] += getattr(result, "nit", 0) or 0
        self.counters[f"{name}.nfev"] += getattr(result, "nfev", 0) or 0

    def _after_eval_p(self, result, args, kwargs):
        self.counters["infproj.iters"] += result.iters

    def _after_solve_smooth(self, result, args, kwargs):
        self.counters["smooth.stages"] += len(result.iterates)

    def _after_certificate(self, result, args, kwargs):
        gap = float(result[2])
        self.minima["smooth.cert_gap"] = min(self.minima.get("smooth.cert_gap", gap), gap)

    # -- installing --------------------------------------------------------

    def _targets(self):
        """(owner, attribute, layer-qualified name, original, after, namer)."""
        import gmfkit

        after = {
            "infproj.eval_p": self._after_eval_p,
            "smooth.solve_smooth": self._after_solve_smooth,
            "smooth.objective_certificate": self._after_certificate,
        }
        originals = {}  # id(function) -> (qualified name, function)
        for layer in GMFKIT_LAYERS:
            mod = sys.modules[f"gmfkit.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        out = []
        # every binding of those functions, in every loaded gmfkit module
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gmfkit" or modname.startswith("gmfkit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[1] is obj:
                    out.append((mod, attr, hit[0], obj, after.get(hit[0]), None))
        pd_cls = gmfkit.gmf.ProblemData
        out.append((pd_cls, "__post_init__", "gmf.ProblemData", pd_cls.__post_init__, None, None))
        for func in LINALG_FUNCS:
            fn = getattr(numpy.linalg, func)
            out.append((numpy.linalg, func, f"linalg.{func}", fn, self._after_linalg(func), None))
        out.append(
            (
                scipy.optimize,
                "minimize",
                "scipyopt.minimize",
                scipy.optimize.minimize,
                self._after_minimize,
                self._minimize_name,
            )
        )
        out.append((scipy.optimize, "nnls", "scipyopt.nnls", scipy.optimize.nnls, None, None))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # one wrapper per original, shared by all its bindings
        try:
            for owner, attr, name, fn, after, namer in self._targets():
                w = wrappers.get(id(fn))
                if w is None:
                    w = wrappers[id(fn)] = self._wrap(name, fn, after, namer)
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, w)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


def span_table(spans, names):
    """Per span name: [calls, inclusive ns, self ns].

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, as calls are sequential."""
    child_ns = [0] * len(spans)
    for sid, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    table = defaultdict(lambda: [0, 0, 0])
    for i, (sid, t0, t1, parent, _) in enumerate(spans):
        row = table[names[sid]]
        row[0] += 1
        row[1] += t1 - t0
        row[2] += (t1 - t0) - child_ns[i]
    return dict(table)


def under(spans, names, ancestor: str):
    """For each span, whether some proper ancestor is named `ancestor`.

    Parents are recorded before their children, so one forward pass works."""
    flags = [False] * len(spans)
    for i, (sid, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            flags[i] = flags[parent] or names[spans[parent][0]] == ancestor
    return flags
