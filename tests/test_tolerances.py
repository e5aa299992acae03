"""One tolerance module: the only numeric constants, read at call time."""

import ast
import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest

import specdiff
from specdiff import opcore
from specdiff import tolerances as tol
from specdiff.alpha import d_spectrum_ladder, fredholm_check, transient_filter
from specdiff.hankelmodel import (gamma_kernel, gamma_matrix, gamma_tensor_spectrum, graded_grid,
                                  hankel_bound_check)
from specdiff.harness import ExperimentConfig, run, validate
from specdiff.opcore import ModelSpec, build_model, select_spectrum
from specdiff.resolvent import ResolventError, boundary_value

# the table's keys and values before it had a module of its own, the four
# constants that were in force but missing from it, the seven thresholds
# that were inline literals, and the floor of the rung cloud kernel
TABLE = {
    "band_margin": 0.1, "spectral_point_ulps": 32, "psd_floor": 1e-10,
    "inversion_identity": 1e-9, "resonance_cond": 1e12, "alpha_cap": 1e-6,
    "kernel_tol": 1e-6, "unitarity": 1e-6, "scattering_unitarity": 1e-10,
    "stationary_z_normalization": 1e-9, "eps_n_min": 50.0, "transient_move": 0.1,
    "pm_one": 1e-6, "accumulation": 0.02,
    "symmetry": 1e-10, "grid_span": 1e12, "richardson_eps0": 0.1, "richardson_steps": 10,
    "alpha_floor": 1e-10, "big_eigenvalue": 0.1, "direction_merge": 1e-14,
    "reciprocity": 1e-10, "carleman_hypothesis": 1e-12, "carleman_bound": 1e-6,
    "cloud_floor": 1e-12,
}


def _numeric_constants(module):
    return {name for name, value in vars(module).items()
            if name.isupper() and isinstance(value, (int, float)) and not isinstance(value, bool)}


def test_only_the_tolerance_module_binds_numeric_constants():
    modules = [importlib.import_module(f"specdiff.{info.name}")
               for info in pkgutil.iter_modules(specdiff.__path__)]
    assert tol in modules and len(modules) == 9
    for module in modules + [specdiff]:
        if module is not tol:
            assert not _numeric_constants(module), module.__name__
    names = _numeric_constants(tol)
    assert sorted(tol.table()) == sorted(name.lower() for name in names)
    assert tol.table() == TABLE


def test_only_opcore_reads_the_band_margin_and_calls_arpack():
    # the band rule is opcore.in_band's alone, and no module imports scipy.sparse: every
    # singular value is a dense SVD's or the certified kernel's (opcore.leading_singvals,
    # opcore._floor_singvals), and ARPACK is called nowhere
    for info in pkgutil.iter_modules(specdiff.__path__):
        module = importlib.import_module(f"specdiff.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        reads = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                 and getattr(node, "id", getattr(node, "attr", None)) == "BAND_MARGIN"]
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert not [name for name in imported if name.startswith("scipy.sparse")], info.name
        assert bool(reads) == (info.name == "opcore"), info.name


def _references():
    # (module name, attribute names read, every name referenced or imported) per specdiff module
    for info in pkgutil.iter_modules(specdiff.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"specdiff.{info.name}")))
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        refs = attrs | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        refs |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        refs |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
        refs |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
        yield info.name, attrs, refs


def test_no_module_calls_scipys_blas():
    # dense products go through NumPy's OpenBLAS: SciPy bundles a second one, whose thread pool
    # would contend with NumPy's for the cores
    for name, _, refs in _references():
        assert not {"blas", "scipy.linalg.blas", "get_blas_funcs"} & refs, name


def test_only_opcore_chooses_the_rung_route():
    # the route rule and the even sector it selects (opcore.ladder_rung) are named nowhere else
    names = {"one_site_at_origin", "even_sector"}
    for name, _, refs in _references():
        if name == "opcore":
            assert names <= refs
        else:
            assert not names & refs, name


def test_only_opcore_builds_a_ladder():
    # a truncation ladder is opcore._ladder's, which checks n_list and builds the rungs: alpha
    # and pcfunc never use build_model (the name stays imported there only for perfbench's
    # tracer test), and the three modules that run a ladder all take it from _ladder
    for name in ("alpha", "pcfunc"):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"specdiff.{name}")))
        assert "build_model" not in {node.id for node in ast.walk(tree)
                                     if isinstance(node, ast.Name)}, name
    for name, _, refs in _references():
        if name != "opcore":
            assert ("_ladder" in refs) == (name in ("alpha", "pcfunc", "harness")), name


def test_only_the_rung_chooses_the_cloud_kernel():
    # opcore reads no symbol (no attribute named jumps), and the kernels and the step test that
    # chooses between them (Rung.cloud) are named nowhere else
    kernels = {"_floor_singvals", "_floor_basis", "_one_step"}
    for name, attrs, refs in _references():
        if name == "opcore":
            assert "jumps" not in attrs and kernels <= refs
        else:
            assert not kernels & refs, name
    # one range finder with no options: it takes the matrix it overwrites and the floor it
    # certifies, nothing that picks a growth rule or a copy
    assert list(inspect.signature(opcore._floor_basis).parameters) == ["a", "floor"]


def test_one_owner_for_each_spectral_point_convention():
    # an eigenvalue on a window's end is outside it (opcore.select_spectrum, open windows only),
    # and a symbol takes its left limit at a jump (PiecewiseFn.on_spectrum): no module defines or
    # passes a parameter that picks a side, and pcfunc meets a spectrum only through on_spectrum
    for info in pkgutil.iter_modules(specdiff.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"specdiff.{info.name}")))
        params = {arg.arg for node in ast.walk(tree) if isinstance(node, ast.arguments)
                  for arg in node.posonlyargs + node.args + node.kwonlyargs}
        keywords = {kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
                    for kw in node.keywords}
        assert "closed" not in params | keywords, info.name
    refs = {name: refs for name, _, refs in _references()}
    assert not {"select_spectrum", "count_below"} & refs["pcfunc"]
    assert {"snap_to_points", "on_spectrum"} <= refs["pcfunc"]


def test_no_default_reads_a_tolerance():
    # a default is bound when its function is defined, so one read from the table would not
    # follow a value set at run time, which the manifest would still report
    for info in pkgutil.iter_modules(specdiff.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"specdiff.{info.name}")))
        defaults = [d for node in ast.walk(tree) if isinstance(node, ast.arguments)
                    for d in node.defaults + node.kw_defaults if d is not None]
        assert not [node for d in defaults for node in ast.walk(d)
                    if isinstance(node, ast.Name) and node.id == "tol"], info.name


def test_hankel_grids_read_the_grid_span(monkeypatch):
    nodes = graded_grid(64, 50.0)[0]
    spectrum = gamma_tensor_spectrum(np.eye(1), 64, 50.0)
    assert nodes[0] == pytest.approx(50.0 / tol.GRID_SPAN, rel=1e-9)
    monkeypatch.setattr(tol, "GRID_SPAN", 1e6)
    moved = graded_grid(64, 50.0)[0]
    assert moved[0] == pytest.approx(50.0 / 1e6, rel=1e-9)
    assert np.array_equal(gamma_matrix(64, 50.0).nodes, moved)
    assert np.array_equal(hankel_bound_check(gamma_kernel, 1.0, 64, 50.0)["discretization"].nodes,
                          moved)
    assert not np.array_equal(gamma_tensor_spectrum(np.eye(1), 64, 50.0), spectrum)


def _pair():
    return build_model(ModelSpec("lattice1d", 50, ((0, 0.5),)))


def test_band_margin_is_read_where_it_is_used(tmp_path, monkeypatch):
    pair = _pair()
    boundary_value(pair, 1.5)
    doc = {"kind": "alpha_sweep", "model": json.loads(pair.spec.to_json()),
           "lambda_grid": [0.0, 1.5], "output_dir": str(tmp_path / "out")}
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    assert validate(cfg) == []
    monkeypatch.setattr(tol, "BAND_MARGIN", 0.6)
    with pytest.raises(ResolventError, match="band_margin"):
        boundary_value(pair, 1.5)
    assert validate(cfg) == ["lambda=1.5 within band_margin of the spectral edge"]
    record = run(cfg)
    assert [(e["lambda"], e["type"]) for e in record.errors] == [(1.5, "ResolventError")]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["tolerances"]["band_margin"] == 0.6


def test_alpha_reads_the_kernel_tolerance(monkeypatch):
    pair = _pair()
    chk = fredholm_check(boundary_value(pair, 0.3), pair.j)
    assert chk["fredholm"]
    monkeypatch.setattr(tol, "KERNEL_TOL", max(chk["sigma_min_0"], chk["sigma_min_1"]) + 1.0)
    assert not fredholm_check(boundary_value(pair, 0.3), pair.j)["fredholm"]


def test_opcore_reads_the_spectral_point_rule(monkeypatch):
    # -1e-16 is on the point 0 under the 32-ulp rule and below it without the rule
    w = np.array([-1.0, -1e-16, 1.0])
    assert select_spectrum(w, hi=0.0).tolist() == [True, False, False]
    monkeypatch.setattr(tol, "SPECTRAL_POINT_ULPS", 0)
    assert select_spectrum(w, hi=0.0).tolist() == [True, True, False]


def test_ladder_reads_the_transient_move(monkeypatch):
    spec = ModelSpec("lattice1d", 20, ((0, 1.0),))
    est = d_spectrum_ladder(spec, 0.3, (20, 30, 40))
    assert np.array_equal(est.filtered_cloud, np.sort(est.eigenvalue_clouds[-1]))
    monkeypatch.setattr(tol, "TRANSIENT_MOVE", 1e-3)
    moved = d_spectrum_ladder(spec, 0.3, (20, 30, 40))
    clouds = moved.eigenvalue_clouds
    assert moved.filtered_cloud.size < est.filtered_cloud.size
    assert np.array_equal(moved.filtered_cloud, transient_filter(clouds[-1], clouds[-2], 1e-3))
