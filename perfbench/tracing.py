"""Span tracing of specdiff's public functions and of the linear-algebra kernels.

The tracer wraps, from outside the package, every module-level binding of each
public function of the layer modules, plus the NumPy/SciPy kernels those
modules call (the `linalg` layer).  Modules import each other's functions by
name (`specdiff.harness.build_model` is `specdiff.opcore.build_model`), so
every binding that refers to a wrapped function is replaced, and restored by
`uninstall`.  Spans stay in memory as small lists and are written out once, at
the end of a run.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

PACKAGE_LAYERS = ("harness", "opcore", "resolvent", "alpha", "scatter1d",
                  "pcfunc", "hankelmodel")
LAYERS = PACKAGE_LAYERS + ("linalg",)

LINALG_KERNELS = {
    "numpy.linalg": ("eigh", "eigvalsh", "svd", "solve", "norm", "cond", "qr"),
    "scipy.linalg": ("eigh_tridiagonal", "solve_banded"),
    "scipy.sparse.linalg": ("svds",),
}
EIGENSOLVES = ("linalg.eigh", "linalg.eigvalsh", "linalg.eigh_tridiagonal")
_DENSE = ("eigh", "eigvalsh", "svd", "solve", "cond", "qr")

# span fields
NAME, START, END, PARENT, OP, ERROR, META = range(7)


def _linalg_meter(name):
    kernel = name.split(".")[1]

    def meter(args, kwargs, result):
        arrays = [a for a in args if hasattr(a, "nbytes")]
        meta = {"arg_bytes": sum(int(a.nbytes) for a in arrays)}
        first = arrays[0] if arrays else None
        dense = kernel in _DENSE or (kernel == "norm" and _norm_is_spectral(args, kwargs))
        if dense and first is not None and first.ndim >= 2:
            m, n = first.shape[-2:]
            meta["dense_n3"] = int(m) * int(n) * min(int(m), int(n))
        return meta
    return meter


def _norm_is_spectral(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    return order in (2, -2)


def _build_model_meter(args, kwargs, result):
    if result is None:          # the call raised
        return {"bytes": 0}
    return {"bytes": sum(int(getattr(result, f).nbytes) for f in ("h0", "v", "g", "j"))}


def _rungs_meter(args, kwargs, result):
    n_list = args[2] if len(args) > 2 else kwargs["n_list"]
    return {"rungs": len(n_list)}


def _boundary_value_meter(args, kwargs, result):
    pair = args[0]
    route = args[2] if len(args) > 2 else kwargs.get("route", "auto")
    if route == "auto":
        route = "closed_form" if pair.spec.kind == "lattice1d" else "extrapolated"
    return {"extrapolated": route == "extrapolated"}


def _run_meter(args, kwargs, result):
    return {"points": max(1, len(args[0].lambda_grid))}


METERS = {
    "opcore.build_model": _build_model_meter,
    "alpha.d_spectrum_ladder": _rungs_meter,
    "pcfunc.union_formula_check": _rungs_meter,
    "resolvent.boundary_value": _boundary_value_meter,
    "harness.run": _run_meter,
}


class Tracer:
    """Records one span per call of a wrapped function.

    A span is [name, start, end, parent index, operation id, raised, meta];
    `op` is set by the caller before each operation so that every span of one
    operation carries its id.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, meter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                if meter is not None:
                    span[META] = meter(args, kwargs, result)
        return traced

    def install(self):
        """Wrap the public functions and kernels, and rebind every reference to them."""
        wrappers = {}
        modules = []
        for layer in PACKAGE_LAYERS:
            mod = importlib.import_module(f"specdiff.{layer}")
            modules.append(mod)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, METERS.get(name)))
        for modname, kernels in LINALG_KERNELS.items():
            mod = importlib.import_module(modname)
            modules.append(mod)
            for attr in kernels:
                obj = getattr(mod, attr)
                name = f"linalg.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, _linalg_meter(name)))
        modules.append(importlib.import_module("specdiff"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,op,raised\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{s[OP]},{int(s[ERROR])}\n")


def layer_metrics(spans, wall_s):
    """Per-layer and per-function metrics from a finished span list.

    A span's self time is its duration minus the durations of its direct
    children (calls nest, so children never overlap).  A layer's busy time
    counts only its outermost spans, so nested calls within one layer are not
    counted twice; its self time is busy time minus the time covered by child
    spans of other layers.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    # function and layer names on each span's ancestor chain; equal chains
    # are shared, since there are few distinct ones
    chains = [frozenset()] * n
    cache = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        key = (chains[p], spans[p][NAME])
        chain = cache.get(key)
        if chain is None:
            chain = cache[key] = key[0] | {key[1], key[1].split(".")[0]}
        chains[i] = chain

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.busy_s"] = 0.0
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.errors"] = 0
    fn_busy = {}
    for i, s in enumerate(spans):
        layer = s[NAME].split(".")[0]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += dur[i] - child[i]
        m[f"{layer}.errors"] += int(s[ERROR])
        if layer not in chains[i]:
            m[f"{layer}.busy_s"] += dur[i]
        if s[NAME] not in chains[i]:
            fn_busy[s[NAME]] = fn_busy.get(s[NAME], 0.0) + dur[i]
    for name in ("alpha.d_spectrum_ladder", "linalg.eigvalsh", "linalg.eigh_tridiagonal",
                 "linalg.svds", "opcore.build_model", "resolvent.boundary_value",
                 "pcfunc.symbol_difference", "pcfunc.hausdorff",
                 "hankelmodel.hankel_bound_check", "hankelmodel.build_l_operators"):
        m[f"{name}.busy_s"] = fn_busy.get(name, 0.0)

    def total(name, key):
        return sum(s[META][key] for s in spans
                   if s[NAME] == name and s[META] and key in s[META])

    def eigs_under(scope):
        return sum(1 for i, s in enumerate(spans) if s[NAME] in EIGENSOLVES and scope in chains[i])

    def ratio(num, den):
        return num / den if den else 0.0

    m["linalg.dense_n3"] = sum(s[META].get("dense_n3", 0) for s in spans
                               if s[NAME].startswith("linalg.") and s[META])
    m["linalg.arg_bytes"] = sum(s[META]["arg_bytes"] for s in spans
                                if s[NAME].startswith("linalg.") and s[META])
    m["opcore.build_model.bytes"] = total("opcore.build_model", "bytes")
    builds_in_run = sum(1 for i, s in enumerate(spans)
                        if s[NAME] == "opcore.build_model" and "harness.run" in chains[i])
    m["harness.builds_per_point"] = ratio(builds_in_run, total("harness.run", "points"))
    m["alpha.eigs_per_rung"] = ratio(eigs_under("alpha.d_spectrum_ladder"),
                                     total("alpha.d_spectrum_ladder", "rungs"))
    m["pcfunc.eigs_per_rung"] = ratio(eigs_under("pcfunc.union_formula_check"),
                                      total("pcfunc.union_formula_check", "rungs"))
    extrap = [s for s in spans if s[NAME] == "resolvent.boundary_value"
              and s[META] and s[META]["extrapolated"]]
    m["resolvent.extrap_calls"] = len(extrap)
    rooted = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] < 0)
    m["trace.spans"] = n
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - rooted
    return m
