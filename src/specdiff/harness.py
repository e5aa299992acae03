"""Config-driven experiment runner: sweeps, ladders, artifacts, manifests.

Each run consumes an ExperimentConfig (JSON), dispatches to the computational
modules, writes CSV/JSON artifacts into the output directory, and finishes
with a manifest recording the config hash, a content digest for every file,
the tolerance table in force (tolerances.table(), read when the manifest is
written), the environment (versions, BLAS builds, thread caps and the OpenBLAS
thread timeout) and any per-point failures.  Only the manifest carries the
environment, so every other artifact is the same bytes wherever it runs.  A
config's keys are ExperimentConfig's fields, those with no default required,
so it has no tolerance overrides: an unknown key is a ConfigError.  Its
canonical_json, the bytes of its hash, is asdict with the symbol in its own
shape.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field, fields
from functools import cache, partial

import numpy as np

from . import THREAD_VARS, __version__
from . import tolerances as tol
from .alpha import alpha_derivative, alpha_smatrix, d_spectrum_ladder, fredholm_check
from .opcore import (ModelSpec, _checked_float, _checked_int, _checked_list, _checked_object,
                     _required, build_model, in_band)
from .pcfunc import PiecewiseFn, empirical_spectrum, hausdorff, predicted_ess_spectrum
from .resolvent import boundary_value
from .scatter1d import smatrix_stationary, smatrix_transfer


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _expand_grid(grid):
    # a list of points, or a {"min", "max", "count"} range object expanded by linspace
    if isinstance(grid, (list, tuple)):
        return [_checked_float(x, "lambda_grid", ConfigError) for x in grid]
    keys = ("min", "max", "count")
    _checked_object(grid, keys, "lambda_grid", ConfigError, required=keys)
    count = _checked_int(grid["count"], "lambda_grid count", ConfigError)
    if count < 0:
        raise ConfigError(f"lambda_grid count must be >= 0, got {count}")
    return list(np.linspace(_checked_float(grid["min"], "lambda_grid min", ConfigError),
                            _checked_float(grid["max"], "lambda_grid max", ConfigError), count))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: ModelSpec
    lambda_grid: tuple = ()
    n_list: tuple = ()
    output_dir: str = "out"
    phi: PiecewiseFn | None = None
    hankel_n: int = 200
    hankel_t: float = 50.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        object.__setattr__(self, "lambda_grid", tuple(_expand_grid(self.lambda_grid)))
        n_list = _checked_list(self.n_list, "n_list", ConfigError)
        object.__setattr__(self, "n_list", tuple(_checked_int(n, "n_list", ConfigError)
                                                 for n in n_list))
        object.__setattr__(self, "hankel_n", _checked_int(self.hankel_n, "hankel_n", ConfigError))
        object.__setattr__(self, "hankel_t", _checked_float(self.hankel_t, "hankel_t", ConfigError))
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")

    @classmethod
    def from_json(cls, text):
        """The config of a JSON object whose keys are the fields, those with no default required."""
        doc = _checked_object(json.loads(text), [f.name for f in fields(cls)], "config", ConfigError,
                              required=_required(cls))
        try:
            kwargs = dict(doc, model=ModelSpec.from_json(json.dumps(doc["model"])))
            if doc.get("phi") is not None:
                kwargs["phi"] = PiecewiseFn.from_json(json.dumps(doc["phi"]))
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())

    def canonical_json(self):
        phi = json.loads(self.phi.to_json()) if self.phi else None     # the symbol's own shape
        return json.dumps(dict(asdict(self), phi=phi), sort_keys=True)

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _fatal_diagnostics(config: ExperimentConfig):
    """Structural problems that prevent the run from starting at all."""
    diags = []
    _, needs_grid = _DISPATCH[config.kind]
    if needs_grid and not config.lambda_grid:
        diags.append("lambda_grid is empty")
    if config.kind == "d_ladder":
        if len(config.n_list) < 3:
            diags.append("d_ladder needs at least 3 truncation sizes")
        by_name = {}
        for lam in config.lambda_grid:
            by_name.setdefault(_d_ladder_name(lam), []).append(lam)
        diags += [f"lambda {lams} all write {name}"
                  for name, lams in by_name.items() if len(lams) > 1]
    if config.kind in ("d_ladder", "phi_check") and list(config.n_list) != sorted(config.n_list):
        diags.append(f"n_list {list(config.n_list)} must be ascending")
    if config.kind == "phi_check" and config.phi is None:
        diags.append("phi_check requires a phi symbol")
    parent = os.path.dirname(os.path.abspath(config.output_dir)) or "."
    if not os.access(parent, os.W_OK):
        diags.append(f"output directory parent {parent} not writable")
    return diags


def validate(config: ExperimentConfig):
    """Static configuration diagnostics; no computation, nothing thrown.

    Includes advisory warnings (band-edge grid points, and the jumps of a
    phi_check symbol that predicted_ess_spectrum rejects) on top of the
    structural checks that would stop a run.
    """
    diags = _fatal_diagnostics(config)
    if config.model.kind == "lattice1d" and config.kind != "d_ladder":
        diags += [f"lambda={lam} within band_margin of the spectral edge"
                  for lam in config.lambda_grid if not in_band(lam)]
    if config.kind == "phi_check" and config.phi is not None:
        diags += [f"jump at {loc} within band_margin of the spectral edge"
                  for loc in config.phi.singsupp() if not in_band(loc)]
    return diags


@cache
def _environment():
    # versions, both BLAS builds (NumPy and SciPy bundle one each), and the thread caps and the
    # OpenBLAS thread timeout in force (None where unset), read once per process, for the manifest
    import scipy

    env = {"python": platform.python_version(), "specdiff": __version__,
           "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
           "openblas_thread_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}
    for lib in (np, scipy):
        dep = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[lib.__name__] = lib.__version__
        env[f"{lib.__name__}_blas"] = f"{dep['name']} {dep['version']}"
    return env


@dataclass
class RunRecord:
    config_hash: str
    status: str
    started: float
    finished: float = 0.0
    files: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    results: dict = field(default_factory=dict)

    def manifest(self, config: ExperimentConfig):
        return json.dumps({
            "config_hash": self.config_hash,
            "config": json.loads(config.canonical_json()),
            "status": self.status,
            "started": self.started,
            "finished": self.finished,
            "files": self.files,
            "errors": self.errors,
            "environment": _environment(),
            "tolerances": tol.table(),
            "tolerance_version": tol.__version__,
        }, indent=2, sort_keys=True)


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


class _Emitter:
    def __init__(self, out_dir, record):
        self.out_dir = out_dir
        self.record = record

    def write(self, name, text):
        path = os.path.join(self.out_dir, name)
        _write_atomic(path, text)
        self.record.files[name] = _digest(path)


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


def _errors(lams, exc):
    return [{"lambda": lam, "error": str(exc), "type": type(exc).__name__} for lam in lams]


def _sweep(config, emit, record, filename, header, rows_fn):
    """Rows of rows_fn(pair, bv, lams) over the lambda grid, from one built model.

    The grid runs in batches of consecutive points.  A batch is one
    boundary_value call on the array of its lambda, and rows_fn evaluates the
    whole batch at once.  A batch holds at most max(1, (dim // k)^2) points, so
    that its stacked k x k arrays hold no more entries than one dim x dim
    matrix (one point per batch when V is dense, k = dim).  A batch that raises
    is split in halves and each half retried, down to single points: a point
    that raises is recorded with its own error and the rest still run.  If the
    model cannot be built, every point is recorded.  Rows and errors keep grid
    order, and the CSV is written either way.
    """
    rows = []
    try:
        pair = build_model(config.model)
    except Exception as exc:
        record.errors.extend(_errors(config.lambda_grid, exc))
    else:
        grid = config.lambda_grid
        size = max(1, (pair.spec.dim // max(pair.k_dim, 1)) ** 2)
        for start in range(0, len(grid), size):
            _sweep_batch(pair, grid[start:start + size], rows_fn, rows, record.errors)
    emit.write(filename, _csv(header, rows))
    record.results["rows"] = len(rows)


def _sweep_batch(pair, lams, rows_fn, rows, errors):
    try:
        rows.extend(rows_fn(pair, boundary_value(pair, np.array(lams)), lams))
    except Exception as exc:
        if len(lams) == 1:
            errors.extend(_errors(lams, exc))
            return
        half = len(lams) // 2
        _sweep_batch(pair, lams[:half], rows_fn, rows, errors)
        _sweep_batch(pair, lams[half:], rows_fn, rows, errors)


def _alpha_rows(pair, bv, lams):
    ests = (alpha_derivative(bv, pair.j), alpha_smatrix(bv, pair.j))
    values = [est.value.tolist() for est in ests]
    errs = bv.err_estimate.tolist()
    return [(lam, est.route, value[i], errs[i], bv.route)
            for i, lam in enumerate(lams) for est, value in zip(ests, values)]


def _fredholm_rows(pair, bv, lams):
    chk = fredholm_check(bv, pair.j)
    return list(zip(lams, chk["sigma_min_0"].tolist(), chk["sigma_min_1"].tolist(),
                    chk["fredholm"].astype(int).tolist(),
                    alpha_derivative(bv, pair.j).value.tolist()))


def _scattering_rows(pair, bv, lams):
    sc = smatrix_transfer(pair.spec.potential, bv.lam)
    s_stat = smatrix_stationary(pair, bv)
    alpha_d = alpha_derivative(bv, pair.j).value
    half_s = 0.5 * np.linalg.norm(sc.s - np.eye(2), 2, axis=(-2, -1))
    half_stat = 0.5 * np.linalg.norm(s_stat - np.eye(2), 2, axis=(-2, -1))
    return list(zip(lams, abs(sc.t).tolist(), abs(sc.r_plus).tolist(), (2 * half_s).tolist(),
                    (2 * half_stat).tolist(), alpha_d.tolist(), abs(half_s - alpha_d).tolist()))


def _d_ladder_name(lam):
    return f"d_ladder_lambda_{lam:+.6g}.json"


def _run_d_ladder(config, emit, record):
    ests = d_spectrum_ladder(config.model, np.array(config.lambda_grid), config.n_list)
    for lam, est in zip(config.lambda_grid, ests):
        emit.write(_d_ladder_name(lam), est.to_json())


def _run_phi_check(config, emit, record):
    phi = config.phi
    pair = build_model(config.model)

    def alpha_fn(lam):
        return alpha_derivative(boundary_value(pair, lam), pair.j).value

    pred = predicted_ess_spectrum(phi, alpha_fn)
    out = {"predicted_endpoints": [[w.real, w.imag] for w in pred.endpoints]}
    if phi.is_real and config.n_list:
        res = empirical_spectrum(config.model, phi, config.n_list)
        acc = res["accumulation"]
        target = pred.sample()
        dist = hausdorff(np.concatenate([acc, [0.0]]), target) if target.size else 0.0
        out.update({
            "n_list": list(res["n_list"]),
            "big_counts": list(res["big_counts"]),
            "accumulation": [float(x) for x in acc],
            "hausdorff_to_prediction": float(dist),
        })
    emit.write("phi_check.json", json.dumps(out, indent=2, sort_keys=True))
    record.results.update(out)


def _run_hankel_suite(config, emit, record):
    from .hankelmodel import build_l_operators, gamma_kernel, hankel_bound_check
    n, t = config.hankel_n, config.hankel_t
    carleman = hankel_bound_check(lambda x: gamma_kernel(x, 0.0), 1.0, n, t)
    eigs = np.linalg.eigvalsh(carleman["discretization"].matrix)
    emit.write("gamma_spectrum.csv",
               _csv(("n", "T", "index", "eigenvalue"),
                    [(n, float(t), i, float(w)) for i, w in enumerate(eigs)]))
    out = {"gamma_max": float(eigs.max()), "gamma_min": float(eigs.min()),
           "carleman_norm": carleman["norm"], "carleman_ok": carleman["bound_ok"]}
    if config.model.potential and config.lambda_grid:
        rec = build_l_operators(build_model(config.model), config.lambda_grid[0], n, t)
        out["residual_b16"] = rec["residual_b16"]
    emit.write("hankel_suite.json", json.dumps(out, indent=2, sort_keys=True))
    record.results.update(out)


_DISPATCH = {
    # kind: (runner(config, emit, record), needs a lambda grid)
    "alpha_sweep": (partial(_sweep, filename="alpha_sweep.csv",
                            header=("lambda", "route", "value", "err", "mode"),
                            rows_fn=_alpha_rows), True),
    "d_ladder": (_run_d_ladder, True),
    "phi_check": (_run_phi_check, False),
    "hankel_suite": (_run_hankel_suite, False),
    "fredholm_sweep": (partial(_sweep, filename="fredholm_sweep.csv",
                               header=("lambda", "sigma_min_0", "sigma_min_1",
                                       "fredholm", "alpha"),
                               rows_fn=_fredholm_rows), True),
    "scattering_compare": (partial(_sweep, filename="scattering_compare.csv",
                                   header=("lambda", "abs_t", "abs_r", "norm_S_minus_I",
                                           "norm_S_stationary_minus_I",
                                           "alpha_derivative", "discrepancy"),
                                   rows_fn=_scattering_rows), True),
}
KINDS = tuple(_DISPATCH)


def run(config: ExperimentConfig, overwrite=False) -> RunRecord:
    """Execute the experiment, write artifacts and manifest, return the record.

    Refuses to touch an output directory that already holds a manifest unless
    overwrite is set; per-point module errors are recorded and the remaining
    grid points still run (status 'partial').  An error that stops the whole
    runner is recorded once per lambda of the grid (once, with lambda None,
    for an empty grid), and the manifest is still written.
    """
    diags = _fatal_diagnostics(config)
    if diags:
        raise ConfigError("; ".join(diags))
    out_dir = config.output_dir
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path) and not overwrite:
        raise ConfigError(f"{manifest_path} exists; pass overwrite to replace")
    os.makedirs(out_dir, exist_ok=True)
    record = RunRecord(config_hash=config.config_hash(), status="running",
                       started=time.time())
    emit = _Emitter(out_dir, record)
    runner, _ = _DISPATCH[config.kind]
    try:
        runner(config, emit, record)
    except Exception as exc:
        record.errors.extend(_errors(config.lambda_grid or (None,), exc))
    record.finished = time.time()
    record.status = "partial" if record.errors else "complete"
    _write_atomic(manifest_path, record.manifest(config))
    return record
