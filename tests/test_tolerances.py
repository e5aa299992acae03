"""One tolerance module: the only numeric constants, read at call time."""

import importlib
import json
import pkgutil

import numpy as np
import pytest

import specdiff
from specdiff import tolerances as tol
from specdiff.alpha import fredholm_check
from specdiff.harness import ExperimentConfig, run, validate
from specdiff.opcore import ModelSpec, build_model, select_spectrum
from specdiff.resolvent import ResolventError, boundary_value

# the table's keys and values before it had a module of its own, plus the
# four constants that were in force but missing from it
TABLE = {
    "band_margin": 0.1, "spectral_point_ulps": 32, "psd_floor": 1e-10,
    "inversion_identity": 1e-9, "resonance_cond": 1e12, "alpha_cap": 1e-6,
    "kernel_tol": 1e-6, "unitarity": 1e-6, "scattering_unitarity": 1e-10,
    "stationary_z_normalization": 1e-9, "eps_n_min": 50.0, "transient_move": 0.1,
    "pm_one": 1e-6, "accumulation": 0.02,
    "symmetry": 1e-10, "grid_span": 1e12, "richardson_eps0": 0.1, "richardson_steps": 10,
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
