"""Experiment runner, manifests, determinism, CLI exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import specdiff
from specdiff import harness, opcore
from specdiff import tolerances as tol
from specdiff.alpha import EssSpectrumEstimate
from specdiff.cli import main
from specdiff.harness import ConfigError, ExperimentConfig, run, validate
from specdiff.pcfunc import PiecewiseFn, SymbolError

MODEL = {"kind": "lattice1d", "n_half": 50, "potential": [[0, 0.5]],
         "decay_rate": None, "seed": 0}


def _config(tmp_path, **overrides):
    doc = {"kind": "alpha_sweep", "model": MODEL,
           "lambda_grid": [-0.5, 0.0, 0.5],
           "output_dir": str(tmp_path / "out")}
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_parsing_and_hash_stability(tmp_path):
    doc = _config(tmp_path)
    cfg1 = ExperimentConfig.from_json(json.dumps(doc))
    cfg2 = ExperimentConfig.from_json(json.dumps(doc))
    assert cfg1.config_hash() == cfg2.config_hash()
    assert cfg1.lambda_grid == (-0.5, 0.0, 0.5)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(json.dumps({"kind": "alpha_sweep"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(json.dumps(_config(tmp_path, kind="bogus")))


def test_linspace_grid_expansion(tmp_path):
    doc = _config(tmp_path, lambda_grid={"min": -1.0, "max": 1.0, "count": 5})
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    assert cfg.lambda_grid == (-1.0, -0.5, 0.0, 0.5, 1.0)


def test_validate_diagnostics(tmp_path):
    cfg = ExperimentConfig.from_json(json.dumps(_config(tmp_path)))
    assert validate(cfg) == []
    bad = _config(tmp_path, lambda_grid=[0.0, 1.99])
    assert any("band_margin" in d for d in validate(
        ExperimentConfig.from_json(json.dumps(bad))))
    bad = _config(tmp_path, kind="d_ladder", lambda_grid=[0.0], n_list=[50, 100])
    diags = validate(ExperimentConfig.from_json(json.dumps(bad)))
    assert any("at least 3" in d for d in diags)
    bad = _config(tmp_path, epsilon_schedule=[0.1], n_list=[100])
    with pytest.raises(ConfigError, match="'epsilon_schedule'"):
        ExperimentConfig.from_json(json.dumps(bad))


def test_validate_warns_on_a_jump_out_of_band(tmp_path):
    # predicted_ess_spectrum rejects a jump at or beyond 2 - BAND_MARGIN and the run ends
    # partial; validate names each such jump up front, not one that carries no jump
    phi = {"jumps": [{"lambda": -0.5, "left": [0, 0], "right": [1, 0]},
                     {"lambda": 1.9, "left": [0, 0], "right": [0, 0]},
                     {"lambda": 1.95, "left": [0, 0], "right": [1, 0]},
                     {"lambda": 2.5, "left": [0, 0], "right": [0.5, 0]}]}
    doc = _config(tmp_path, kind="phi_check", lambda_grid=[], phi=phi)
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    assert validate(cfg) == [f"jump at {loc} within band_margin of the spectral edge"
                             for loc in (1.95, 2.5)]
    res = CliRunner().invoke(main, ["validate", "--config", _write(tmp_path, doc)])
    assert res.exit_code == 1 and "jump at 1.95 within band_margin" in res.output
    record = run(cfg)
    assert record.status == "partial"
    assert [e["type"] for e in record.errors] == ["SymbolError"]


@pytest.mark.parametrize("kind", ["d_ladder", "phi_check"])
def test_descending_n_list_is_a_fatal_diagnostic(tmp_path, kind):
    # the ladders refuse an n_list that does not ascend strictly (a repeated rung included);
    # validate and run say so up front
    phi = {"jumps": [{"lambda": 0.3, "left": [0.0, 0.0], "right": [1.0, 0.0]}]}
    for n_list in ([40, 20, 30], [20, 20, 40]):
        doc = _config(tmp_path, kind=kind, lambda_grid=[0.3], phi=phi, n_list=n_list)
        cfg = ExperimentConfig.from_json(json.dumps(doc))
        assert validate(cfg) == [f"n_list {n_list} must be ascending"]
        with pytest.raises(ConfigError, match="must be ascending"):
            run(cfg)
        assert not (tmp_path / "out").exists()
    doc["n_list"] = [20, 30, 40]
    assert validate(ExperimentConfig.from_json(json.dumps(doc))) == []


def test_alpha_sweep_run_and_manifest(tmp_path):
    cfg = ExperimentConfig.from_json(json.dumps(_config(tmp_path)))
    record = run(cfg)
    assert record.status == "complete"
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == cfg.config_hash()
    for name, digest in manifest["files"].items():
        import hashlib
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert "band_margin" in manifest["tolerances"]


def test_zero_potential_sweep_all_zero(tmp_path):
    doc = _config(tmp_path, model=dict(MODEL, potential=[]))
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    assert record.status == "complete"
    rows = (tmp_path / "out" / "alpha_sweep.csv").read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[2]) == 0.0 for r in rows)
    # V = 0 takes the general path, so the band rule holds on its empty support too:
    # the errors fall on exactly the lambda that validate warns on
    doc = _config(tmp_path, model={"kind": "lattice1d", "n_half": 5},
                  lambda_grid=[0.0, 1.95, 2.5], output_dir=str(tmp_path / "band"))
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    warned = [lam for lam in cfg.lambda_grid if any(f"lambda={lam} " in d for d in validate(cfg))]
    record = run(cfg)
    assert [e["lambda"] for e in record.errors] == warned == [1.95, 2.5]
    assert all(e["type"] == "ResolventError" for e in record.errors)
    assert record.results["rows"] == 2          # both alpha routes at 0.0


def test_refuse_then_overwrite(tmp_path):
    cfg = ExperimentConfig.from_json(json.dumps(_config(tmp_path)))
    run(cfg)
    with pytest.raises(ConfigError):
        run(cfg)
    record = run(cfg, overwrite=True)
    assert record.status == "complete"


def test_rerun_identical_bytes(tmp_path):
    cfg = ExperimentConfig.from_json(json.dumps(_config(tmp_path)))
    run(cfg)
    first = (tmp_path / "out" / "alpha_sweep.csv").read_bytes()
    run(cfg, overwrite=True)
    assert (tmp_path / "out" / "alpha_sweep.csv").read_bytes() == first


def test_partial_run_records_errors(tmp_path):
    # the band-edge point fails inside the sweep loop for scattering
    doc = _config(tmp_path, kind="scattering_compare", lambda_grid=[0.0, 2.5])
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    record = run(cfg)
    assert record.status == "partial"
    assert record.errors and record.errors[0]["lambda"] == 2.5
    assert record.errors[0]["type"] == "ResolventError"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "partial"


def test_scattering_compare_discrepancy_column(tmp_path):
    doc = _config(tmp_path, kind="scattering_compare",
                  lambda_grid={"min": -1.5, "max": 1.5, "count": 50})
    run(ExperimentConfig.from_json(json.dumps(doc)))
    rows = (tmp_path / "out" / "scattering_compare.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 50
    assert max(float(r.split(",")[-1]) for r in rows) <= 1e-6


def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    cfg_path = _write(tmp_path, _config(tmp_path))
    res = runner.invoke(main, ["validate", "--config", cfg_path])
    assert res.exit_code == 0 and "config ok" in res.output
    res = runner.invoke(main, ["alpha", "--config", cfg_path])
    assert res.exit_code == 0
    # wrong subcommand for the config kind
    res = runner.invoke(main, ["ladder", "--config", cfg_path])
    assert res.exit_code == 1
    # partial run exits 2
    part = _write(tmp_path, _config(tmp_path, kind="scattering_compare",
                                    lambda_grid=[0.0, 2.5],
                                    output_dir=str(tmp_path / "out2")), "p.json")
    res = runner.invoke(main, ["scatter", "--config", part])
    assert res.exit_code == 2
    # malformed config exits 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    res = runner.invoke(main, ["alpha", "--config", str(bad)])
    assert res.exit_code == 1


def test_model_config_keys(tmp_path):
    # "potential" defaults to none, as decay_rate and seed do
    spec = opcore.ModelSpec.from_json(json.dumps({"kind": "lattice1d", "n_half": 5}))
    assert spec == opcore.ModelSpec("lattice1d", 5)
    for key in ("kind", "n_half"):
        doc = {k: v for k, v in MODEL.items() if k != key}
        with pytest.raises(opcore.ModelError, match=key):
            opcore.ModelSpec.from_json(json.dumps(doc))
        res = CliRunner().invoke(main, ["validate", "--config",
                                        _write(tmp_path, _config(tmp_path, model=doc))])
        assert res.exit_code == 1 and f"config error: model lacks key '{key}'" in res.output
    model = {"kind": "lattice1d", "n_half": 5}
    res = CliRunner().invoke(main, ["validate", "--config",
                                    _write(tmp_path, _config(tmp_path, model=model))])
    assert res.exit_code == 0 and "config ok" in res.output


def test_integer_fields_are_checked_not_truncated(tmp_path):
    # a non-integral or non-numeric value names its field, whether it comes from JSON or not;
    # an integral float is its integer
    model_cases = [({"n_half": 10.5}, "n_half"), ({"seed": 1.5}, "seed"),
                   ({"potential": [[0.5, 1.0]]}, "potential site"),
                   ({"n_half": "10"}, "n_half"), ({"n_half": True}, "n_half"),
                   ({"potential": [[0, "v"]]}, "potential value"),
                   ({"kind": "random_traceclass", "decay_rate": "fast"}, "decay_rate")]
    for change, field in model_cases:
        doc = dict(MODEL, **change)
        with pytest.raises(opcore.ModelError, match=field):
            opcore.ModelSpec.from_json(json.dumps(doc))
        with pytest.raises(opcore.ModelError, match=field):
            ExperimentConfig.from_json(json.dumps(_config(tmp_path, model=doc)))
        with pytest.raises(opcore.ModelError, match=field):
            opcore.ModelSpec(**doc)
    config_cases = [({"n_list": [250.7, 500, 1000]}, "n_list"), ({"n_list": ["x"]}, "n_list"),
                    ({"hankel_n": 12.9}, "hankel_n"), ({"hankel_n": "abc"}, "hankel_n"),
                    ({"lambda_grid": {"min": -1.0, "max": 1.0, "count": 2.5}}, "count"),
                    ({"hankel_t": "abc"}, "hankel_t"), ({"lambda_grid": ["x"]}, "lambda_grid"),
                    ({"lambda_grid": {"min": "a", "max": 1.0, "count": 3}}, "lambda_grid min")]
    for change, field in config_cases:
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_json(json.dumps(_config(tmp_path, **change)))
    with pytest.raises(ConfigError, match="n_list"):
        ExperimentConfig("d_ladder", opcore.ModelSpec("lattice1d", 5), n_list=(250.7,))
    cfg = ExperimentConfig.from_json(json.dumps(_config(
        tmp_path, model=dict(MODEL, n_half=50.0, potential=[[0.0, 0.5]]), n_list=[250.0],
        hankel_n=12.0)))
    assert cfg.model == opcore.ModelSpec("lattice1d", 50, ((0, 0.5),))
    assert cfg.n_list == (250,) and cfg.hankel_n == 12
    assert all(type(n) is int for n in (cfg.model.n_half, cfg.model.seed, *cfg.n_list))
    # the defaults are the dataclass's own
    cfg = ExperimentConfig.from_json(json.dumps({"kind": "alpha_sweep", "model": MODEL}))
    assert (cfg.output_dir, cfg.hankel_n, cfg.hankel_t) == ("out", 200, 50.0)


@pytest.mark.parametrize("phi,message", [
    ({"jumps": [{"lambda": "abc", "left": [0, 0], "right": [1, 0]}]},
     "jump location must be a number"),
    ({"background": {"name": "gaussian_bump", "params": [1.0, "abc", 0.5]}},
     "background parameter must be a number"),
    ({"jumps": [{"lambda": 0.5, "left": ["abc", 0], "right": [1, 0]}]},
     "jump left limit must be a number"),
    ({"jumps": [{"lambda": 0.5, "left": [0, 0], "right": [1, "i"]}]},
     "jump right limit must be a number"),
    ({"jumps": [{"lambda": 0.5, "left": [0, 0, 0], "right": [1, 0]}]},
     "jump left limit must be a \\[real, imag\\] pair"),
    ({"background": {"name": "gaussian_bump", "params": [1.0, 0.5]}},
     "background 'gaussian_bump' takes 3 parameters"),
])
def test_non_numeric_symbol_fields_are_named(tmp_path, phi, message):
    # a symbol field that is not a number names itself, not "could not convert string to float"
    doc = _config(tmp_path, kind="phi_check", lambda_grid=[], phi=phi)
    with pytest.raises(SymbolError, match=message):
        ExperimentConfig.from_json(json.dumps(doc))
    res = CliRunner().invoke(main, ["validate", "--config", _write(tmp_path, doc)])
    assert res.exit_code == 1 and re.search(f"config error: {message}", res.output)


def test_manifest_records_the_environment_in_force(tmp_path):
    # versions, both BLAS builds and the thread caps that --threads set, in the manifest only
    cfg_path = _write(tmp_path, _config(tmp_path))
    script = "\n".join((
        "import sys",
        "import specdiff.cli",
        "try:",
        "    specdiff.cli.main(['--threads', '1', 'alpha', '--config', sys.argv[1]])",
        "except SystemExit as exc:",
        "    assert exc.code == 0, exc.code",
    ))
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(specdiff.__file__)))
    out = subprocess.run([sys.executable, "-c", script, cfg_path], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    environment = manifest["environment"]
    assert sorted(environment) == ["numpy", "numpy_blas", "openblas_thread_timeout", "python",
                                   "scipy", "scipy_blas", "specdiff", "thread_caps"]
    assert environment["numpy"] == np.__version__
    assert environment["specdiff"] == specdiff.__version__
    assert environment["thread_caps"] == {var: "1" for var in specdiff.THREAD_VARS}
    assert environment["openblas_thread_timeout"] == specdiff.BLAS_THREAD_TIMEOUT
    assert all(environment[key] for key in ("numpy_blas", "scipy_blas"))
    # the environment is the manifest's alone: the artifact is the in-process run's bytes
    first = (tmp_path / "out" / "alpha_sweep.csv").read_bytes()
    run(ExperimentConfig.from_json(json.dumps(_config(tmp_path))), overwrite=True)
    assert (tmp_path / "out" / "alpha_sweep.csv").read_bytes() == first


def test_cli_out_override_and_overwrite(tmp_path):
    runner = CliRunner()
    cfg_path = _write(tmp_path, _config(tmp_path))
    alt = str(tmp_path / "alt")
    assert runner.invoke(main, ["alpha", "--config", cfg_path, "--out", alt]).exit_code == 0
    assert os.path.exists(os.path.join(alt, "alpha_sweep.csv"))
    assert runner.invoke(main, ["alpha", "--config", cfg_path, "--out", alt]).exit_code == 1
    assert runner.invoke(main, ["alpha", "--config", cfg_path, "--out", alt,
                                "--overwrite"]).exit_code == 0


def test_phi_and_hankel_and_fredholm_kinds(tmp_path):
    phi_doc = {"jumps": [{"lambda": -0.5, "left": [0, 0], "right": [1, 0]}],
               "background": {"name": "zero", "params": []}}
    doc = _config(tmp_path, kind="phi_check", phi=phi_doc, n_list=[100, 200],
                  lambda_grid=[])
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    assert record.status == "complete"
    out = json.loads((tmp_path / "out" / "phi_check.json").read_text())
    assert "hausdorff_to_prediction" in out

    doc = _config(tmp_path, kind="hankel_suite", hankel_n=60, hankel_t=20,
                  lambda_grid=[0.0], output_dir=str(tmp_path / "hk"))
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    hk = json.loads((tmp_path / "hk" / "hankel_suite.json").read_text())
    assert hk["carleman_ok"] and hk["gamma_max"] <= np.pi + 1e-6

    doc = _config(tmp_path, kind="fredholm_sweep", output_dir=str(tmp_path / "fr"))
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    rows = (tmp_path / "fr" / "fredholm_sweep.csv").read_text().strip().splitlines()[1:]
    assert all(int(r.split(",")[3]) == 1 for r in rows)


def test_d_ladder_records_one_error_per_lambda(tmp_path):
    # a rung too short for the potential's site passes the static checks and fails in the
    # shared call (an unsorted ladder is a static diagnostic)
    doc = _config(tmp_path, kind="d_ladder", lambda_grid=[-1.0, 0.0, 0.7],
                  model=dict(MODEL, potential=[[5, 0.5]]), n_list=[4, 20, 80])
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    assert record.status == "partial"
    assert [e["lambda"] for e in record.errors] == [-1.0, 0.0, 0.7]
    assert all("outside [-4, 4]" in e["error"] for e in record.errors)
    assert all(e["type"] == "ModelError" for e in record.errors)
    assert not record.files

    doc = _config(tmp_path, kind="d_ladder", lambda_grid=[-1.0, 0.7],
                  n_list=[20, 40, 80], output_dir=str(tmp_path / "ok"))
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    assert record.status == "complete"
    assert set(record.files) == {"d_ladder_lambda_-1.json", "d_ladder_lambda_+0.7.json"}


def test_d_ladder_artifact_name_collision_is_a_fatal_diagnostic(tmp_path):
    # both lambda print as +0.123456 in the artifact name, so one file would hold only the second
    doc = _config(tmp_path, kind="d_ladder", lambda_grid=[-1.0, 0.1234561, 0.1234562],
                  n_list=[20, 40, 80])
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    diag = "lambda [0.1234561, 0.1234562] all write d_ladder_lambda_+0.123456.json"
    assert validate(cfg) == [diag]
    with pytest.raises(ConfigError, match=r"lambda \[0.1234561, 0.1234562\]"):
        run(cfg)
    assert not (tmp_path / "out").exists()
    res = CliRunner().invoke(main, ["ladder", "--config", _write(tmp_path, doc)])
    assert res.exit_code == 1 and diag in res.output
    assert not (tmp_path / "out").exists()
    doc["lambda_grid"] = [-1.0, 0.123456, 0.12346]
    assert validate(ExperimentConfig.from_json(json.dumps(doc))) == []


def test_tolerance_table_reports_the_constants_in_force(tmp_path):
    table = tol.table()
    assert table["unitarity"] == tol.UNITARITY == 1e-6
    assert table["band_margin"] == tol.BAND_MARGIN
    assert table["accumulation"] == tol.ACCUMULATION
    assert "factorization" not in table and "projection_idempotence" not in table
    # a config cannot override the table: the key is rejected, not ignored
    doc = _config(tmp_path, tolerances={"band_margin": 1.6, "unitarity": 1e-3})
    with pytest.raises(ConfigError, match="'tolerances'"):
        ExperimentConfig.from_json(json.dumps(doc))
    run(ExperimentConfig.from_json(json.dumps(_config(tmp_path))))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["tolerances"] == table


@pytest.mark.parametrize("key,value", [("tolerances", {"band_margin": 0.5}),
                                       ("epsilon_schedule", [0.1]),
                                       ("n_lists", [10, 20, 40])])
def test_unknown_config_key_rejected(tmp_path, key, value):
    doc = _config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        ExperimentConfig.from_json(json.dumps(doc))
    res = CliRunner().invoke(main, ["validate", "--config", _write(tmp_path, doc)])
    assert res.exit_code == 1 and f"config error: unknown config key '{key}'" in res.output


@pytest.mark.parametrize("field,value,error,message", [
    ("model", dict(MODEL, potentail=[[0, 0.5]]), opcore.ModelError, "unknown model key 'potentail'"),
    ("phi", {"jumps": [], "backround": {"name": "gaussian_bump", "params": [1.0, 0.0, 0.5]}},
     SymbolError, "unknown symbol key 'backround'"),
    ("phi", {"background": {"name": "zero", "parms": []}}, SymbolError,
     "unknown background key 'parms'"),
    ("phi", {"jumps": [{"lambda": 0.5, "left": [0, 0], "right": [1, 0], "rigth": [2, 0]}]},
     SymbolError, "unknown jump key 'rigth'"),
    ("lambda_grid", {"min": -1.0, "max": 1.0, "count": 3, "step": 0.5}, ConfigError,
     "unknown lambda_grid key 'step'"),
    ("model", "abc", opcore.ModelError, "model must be a JSON object, got str"),
    ("phi", [], SymbolError, "symbol must be a JSON object, got list"),
    ("phi", {"jumps": ["abc"]}, SymbolError, "jump must be a JSON object, got str"),
    ("phi", {"background": [1]}, SymbolError, "background must be a JSON object, got list"),
    ("lambda_grid", 5, ConfigError, "lambda_grid must be a JSON object, got int"),
])
def test_unknown_nested_config_key_rejected(tmp_path, field, value, error, message):
    # a misspelled key inside the model, the symbol or the grid is named, not ignored, and so
    # is a value that is not the JSON object it should be (not read one character at a time)
    doc = _config(tmp_path, **{field: value})
    with pytest.raises(error, match=message):
        ExperimentConfig.from_json(json.dumps(doc))
    res = CliRunner().invoke(main, ["validate", "--config", _write(tmp_path, doc)])
    assert res.exit_code == 1 and f"config error: {message}" in res.output


# one full phi_check config: a two-site model, a linspace grid, and a symbol with a jump and a
# Gaussian bump
PHI_CHECK = {"kind": "phi_check",
             "model": {"kind": "lattice1d", "n_half": 50, "potential": [[0, 0.5], [1, 0.3]],
                       "decay_rate": None, "seed": 0},
             "lambda_grid": {"min": -1.0, "max": 1.0, "count": 3}, "n_list": [100, 200],
             "phi": {"jumps": [{"lambda": 0.5, "left": [0.0, 0.0], "right": [1.0, 0.0]}],
                     "background": {"name": "gaussian_bump", "params": [1.0, 0.0, 0.5]}},
             "hankel_n": 200, "hankel_t": 50.0}
BAD_VALUES = ("abc", [], {}, True, None, 5, -3, 2.5, [1], [[0]], {"x": 1})
REMOVED = object()      # _replaced deletes the value at the path instead


def _paths(doc, path=()):
    # the path of every value of a JSON document, containers and leaves, the root first
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is REMOVED:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def test_every_malformed_value_is_a_named_config_error(tmp_path):
    # each value of a full config, replaced in turn by each bad value or removed, gives a
    # ConfigError, ModelError or SymbolError that names what is wrong (not the "malformed config"
    # of a TypeError the checks missed), or a config that validate can check: never a bare
    # ValueError, TypeError, KeyError or AttributeError.  The model and the symbol, parsed alone,
    # raise only their own error.
    doc = dict(PHI_CHECK, output_dir=str(tmp_path / "out"))
    paths = list(_paths(doc))
    assert len(paths) == 40
    nested = {"model": (opcore.ModelSpec.from_json, opcore.ModelError),
              "phi": (PiecewiseFn.from_json, SymbolError)}
    for path in paths:
        for value in BAD_VALUES + ((REMOVED,) if path else ()):
            bad = _replaced(doc, path, value)
            try:
                config = ExperimentConfig.from_json(json.dumps(bad))
            except (ConfigError, opcore.ModelError, SymbolError) as exc:
                assert not str(exc).startswith("malformed config"), (path, value, exc)
            else:
                assert isinstance(validate(config), list), (path, value)
            if len(path) > 1 and path[0] in nested:
                from_json, error = nested[path[0]]
                try:
                    from_json(json.dumps(bad[path[0]]))
                except error:
                    pass


def test_canonical_json_and_hash_keep_their_bytes():
    # a potential, a complex jump limit, a linspace grid and a bump; the literals pin the writer
    doc = {"kind": "phi_check",
           "model": {"kind": "lattice1d", "n_half": 50, "potential": [[1, -0.25], [0, 0.5]]},
           "lambda_grid": {"min": -1.0, "max": 1.0, "count": 4}, "n_list": [100, 200],
           "output_dir": "out",
           "phi": {"jumps": [{"lambda": -0.5, "left": [0.0, 1.0], "right": [1.0, -0.5]}],
                   "background": {"name": "gaussian_bump", "params": [1.0, 0.25, 0.5]}}}
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    assert cfg.canonical_json() == (
        '{"hankel_n": 200, "hankel_t": 50.0, "kind": "phi_check", "lambda_grid": [-1.0, '
        '-0.33333333333333337, 0.33333333333333326, 1.0], "model": {"decay_rate": null, '
        '"kind": "lattice1d", "n_half": 50, "potential": [[0, 0.5], [1, -0.25]], "seed": 0}, '
        '"n_list": [100, 200], "output_dir": "out", "phi": {"background": {"name": '
        '"gaussian_bump", "params": [1.0, 0.25, 0.5]}, "jumps": [{"lambda": -0.5, "left": '
        '[0.0, 1.0], "right": [1.0, -0.5]}]}}')
    assert cfg.config_hash() == "bd7f931d186c1568d5e0b75c97efd0a18a420419b5bac27857bd4df880694da1"
    assert cfg.model.to_json() == ('{"kind": "lattice1d", "n_half": 50, "potential": '
                                   '[[0, 0.5], [1, -0.25]], "decay_rate": null, "seed": 0}')


def test_d_ladder_estimate_json_keeps_its_bytes():
    est = EssSpectrumEstimate(lam=0.25, n_list=(100, 200, 400),
                              eigenvalue_clouds=(np.array([-0.5, 0.0, 0.5]),
                                                 np.array([-1.0, 1.0 / 3.0])),
                              filtered_cloud=np.array([-0.1, 0.2]), alpha_empirical=0.2,
                              fill_distance=0.30000000000000004, plus_one_count=1,
                              minus_one_count=0, b4_residuals=(1e-15, 2.5e-14, np.float64(3e-13)))
    assert est.to_json() == (
        '{"lambda": 0.25, "n_list": [100, 200, 400], "eigenvalue_clouds": [[-0.5, 0.0, 0.5], '
        '[-1.0, 0.3333333333333333]], "filtered_cloud": [-0.1, 0.2], "alpha_empirical": 0.2, '
        '"fill_distance": 0.30000000000000004, "plus_one_count": 1, "minus_one_count": 0, '
        '"b4_residuals": [1e-15, 2.5e-14, 3e-13]}')


@pytest.mark.parametrize("field,value,key", [
    ("lambda_grid", {"min": -1.0, "max": 1.0}, "count"),
    ("phi", {"jumps": [{"lambda": 0.5, "left": [0, 0]}]}, "right"),
])
def test_malformed_nested_config_is_a_config_error(tmp_path, field, value, key):
    # the object that lacks the key names it, with its own error: the grid, or the symbol's jump
    error, what = {"lambda_grid": (ConfigError, "lambda_grid"), "phi": (SymbolError, "jump")}[field]
    doc = _config(tmp_path, **{field: value})
    with pytest.raises(error, match=f"{what} lacks key '{key}'"):
        ExperimentConfig.from_json(json.dumps(doc))
    res = CliRunner().invoke(main, ["validate", "--config", _write(tmp_path, doc)])
    assert res.exit_code == 1 and f"config error: {what} lacks key '{key}'" in res.output


@pytest.mark.parametrize("overrides,lams,error_type", [
    # predicted_ess_spectrum rejects a jump outside the band margin; no grid
    ({"kind": "phi_check", "lambda_grid": [],
      "phi": {"jumps": [{"lambda": 1.95, "left": [0, 0], "right": [1, 0]}]}},
     [None], "SymbolError"),
    # graded_grid rejects T < 10 before any lambda is used
    ({"kind": "hankel_suite", "hankel_n": 20, "hankel_t": 5, "lambda_grid": [0.1, 0.2]},
     [0.1, 0.2], "HankelError"),
])
def test_runner_error_is_recorded_in_the_manifest(tmp_path, overrides, lams, error_type):
    doc = _config(tmp_path, **overrides)
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    assert record.status == "partial"
    assert [e["lambda"] for e in record.errors] == lams
    assert all(e["type"] == error_type for e in record.errors)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "partial" and manifest["errors"] == record.errors
    doc["output_dir"] = str(tmp_path / "cli")
    command = "phi" if doc["kind"] == "phi_check" else "hankel"
    res = CliRunner().invoke(main, [command, "--config", _write(tmp_path, doc)])
    assert res.exit_code == 2 and "status: partial" in res.output
    assert json.loads((tmp_path / "cli" / "manifest.json").read_text())["errors"] == record.errors


SWEEP_KINDS = ("alpha_sweep", "fredholm_sweep", "scattering_compare")
PHI_DOC = {"jumps": [{"lambda": -0.5, "left": [0, 0], "right": [1, 0]},
                     {"lambda": 0.5, "left": [0, 0], "right": [0.5, 0]}],
           "background": {"name": "zero", "params": []}}


@pytest.mark.parametrize("kind", SWEEP_KINDS + ("phi_check",))
def test_one_model_build_per_config(tmp_path, monkeypatch, kind):
    calls = []
    original = harness.build_model

    def counting_build(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(harness, "build_model", counting_build)
    extra = {"phi": PHI_DOC, "lambda_grid": []} if kind == "phi_check" else {}
    doc = _config(tmp_path, kind=kind, **extra)
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    assert record.status == "complete"
    assert len(calls) == 1


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_failed_build_records_every_point(tmp_path, monkeypatch, kind):
    def failing_build(spec):
        raise MemoryError("no room for the model")

    monkeypatch.setattr(harness, "build_model", failing_build)
    record = run(ExperimentConfig.from_json(json.dumps(_config(tmp_path, kind=kind))))
    assert record.status == "partial"
    assert record.errors == [{"lambda": lam, "error": "no room for the model",
                              "type": "MemoryError"} for lam in (-0.5, 0.0, 0.5)]
    lines = (tmp_path / "out" / f"{kind}.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("lambda,")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "partial" and len(manifest["errors"]) == 3


def test_every_lazy_export_resolves():
    # specdiff.__all__ loads on first access (PEP 562): each name must exist in its module,
    # so a deleted function cannot stay listed
    assert len(specdiff.__all__) == len(set(specdiff.__all__)) > 0
    for name in specdiff.__all__:
        obj = getattr(specdiff, name)
        assert getattr(obj, "__name__", name) == name, name
    with pytest.raises(AttributeError):
        getattr(specdiff, "no_such_function")


def test_threads_option_takes_effect_before_numpy_loads(tmp_path):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for the thread count")
    cfg_path = _write(tmp_path, _config(tmp_path))
    script = "\n".join((
        "import sys",
        "import specdiff.cli",
        "assert 'numpy' not in sys.modules, 'importing specdiff.cli loaded numpy'",
        "try:",
        "    specdiff.cli.main(['--threads', '1', 'validate', '--config', sys.argv[1]])",
        "except SystemExit as exc:",
        "    assert exc.code == 0, exc.code",
        "assert 'numpy' in sys.modules",
        "with open('/proc/self/status') as fh:",
        "    print(next(line.split()[1] for line in fh if line.startswith('Threads:')))",
    ))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(specdiff.__file__)))
    out = subprocess.run([sys.executable, "-c", script, cfg_path], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["config", "ok", "1"]


def test_import_sets_the_openblas_thread_timeout_before_numpy_loads():
    # both bundled OpenBLAS copies read the timeout when they load, so importing specdiff sets it
    # while NumPy is still unloaded; a value already in the environment is kept
    script = "\n".join((
        "import os, sys",
        "import specdiff",
        "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])",
        "import specdiff.cli",
        "assert 'numpy' not in sys.modules, 'importing specdiff.cli loaded numpy'",
    ))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(specdiff.__file__)))
    own = str(int(specdiff.BLAS_THREAD_TIMEOUT) + 1)
    for preset, expected in ((None, specdiff.BLAS_THREAD_TIMEOUT), (own, own)):
        run_env = env if preset is None else dict(env, OPENBLAS_THREAD_TIMEOUT=preset)
        out = subprocess.run([sys.executable, "-c", script], env=run_env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [expected]


SWEEP_HEADERS = {kind: _DISPATCH_HEADER for kind, _DISPATCH_HEADER in
                 ((k, harness._DISPATCH[k][0].keywords["header"]) for k in SWEEP_KINDS)}
# the columns computed from the transfer-matrix S, whose scalar and array arithmetic
# round differently: abs_t, abs_r, norm_S_minus_I, discrepancy
TRANSFER_COLUMNS = (1, 2, 3, 6)
BATCH_CASES = {
    "lattice1d": ({"kind": "lattice1d", "n_half": 50,
                   "potential": [[-2, 0.5], [0, -1.0], [3, 0.25]], "decay_rate": None, "seed": 0},
                  list(np.linspace(-1.85, 1.85, 61)) + [-1.0, 0.0, 0.7]),
    "jacobi": ({"kind": "jacobi", "n_half": 20, "potential": [[0, 0.5], [2, -0.7]],
                "decay_rate": None, "seed": 0}, list(np.linspace(-1.7, 1.7, 9))),
    "zero_potential": (dict(MODEL, potential=[]), list(np.linspace(-1.85, 1.85, 21))),
    "random_traceclass": ({"kind": "random_traceclass", "n_half": 40, "potential": [],
                           "decay_rate": 1.5, "seed": 2}, list(np.linspace(-1.7, 1.7, 7))),
}


def _point_rows(kind, pair, lam):
    """One grid point's rows from scalar calls: the per-point body the batch replaced."""
    from specdiff.alpha import alpha_derivative, alpha_smatrix, fredholm_check
    from specdiff.resolvent import boundary_value
    from specdiff.scatter1d import smatrix_stationary, smatrix_transfer
    bv = boundary_value(pair, lam)
    if kind == "alpha_sweep":
        return [(lam, est.route, est.value, bv.err_estimate, bv.route)
                for est in (alpha_derivative(bv, pair.j), alpha_smatrix(bv, pair.j))]
    if kind == "fredholm_sweep":
        chk = fredholm_check(bv, pair.j)
        return [(lam, chk["sigma_min_0"], chk["sigma_min_1"], int(chk["fredholm"]),
                 alpha_derivative(bv, pair.j).value)]
    sc = smatrix_transfer(pair.spec.potential, lam)
    s_stat = smatrix_stationary(pair, bv)
    alpha_d = alpha_derivative(bv, pair.j).value
    half_s = 0.5 * float(np.linalg.norm(sc.s - np.eye(2), 2))
    half_stat = 0.5 * float(np.linalg.norm(s_stat - np.eye(2), 2))
    return [(lam, abs(sc.t), abs(sc.r_plus), 2 * half_s, 2 * half_stat,
             alpha_d, abs(half_s - alpha_d))]


def _point_by_point(kind, model, grid):
    """(CSV lines, errors) of the grid evaluated one scalar lambda at a time."""
    pair = opcore.build_model(opcore.ModelSpec.from_json(json.dumps(model)))
    rows, errors = [], []
    for lam in grid:
        try:
            rows.extend(_point_rows(kind, pair, lam))
        except Exception as exc:
            errors.append({"lambda": lam, "error": str(exc), "type": type(exc).__name__})
    return harness._csv(SWEEP_HEADERS[kind], rows).splitlines(), errors


def _assert_same_rows(kind, got, want):
    assert got[0] == want[0] and len(got) == len(want)
    for line, ref in zip(got[1:], want[1:]):
        if kind != "scattering_compare":
            assert line == ref
            continue
        cells, ref_cells = line.split(","), ref.split(",")
        for col, (x, y) in enumerate(zip(cells, ref_cells)):
            if col in TRANSFER_COLUMNS:
                assert abs(float(x) - float(y)) <= 1e-15, (col, x, y)
            else:
                assert x == y, (col, x, y)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_a_sweep_batch_equals_its_points(tmp_path, kind, case):
    # closed form, extrapolated route, k = 0 and a dense V (one point per batch): the
    # batched run writes the rows and errors of scalar calls, bit for bit outside the
    # transfer-matrix columns
    model, grid = BATCH_CASES[case]
    doc = _config(tmp_path, kind=kind, model=model, lambda_grid=[float(x) for x in grid])
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    record = run(cfg)
    lines, errors = _point_by_point(kind, model, cfg.lambda_grid)
    assert record.errors == errors
    _assert_same_rows(kind, (tmp_path / "out" / f"{kind}.csv").read_text().splitlines(), lines)
    assert record.results["rows"] == len(lines) - 1


def _cond_and_defect(pair, grid):
    from specdiff.alpha import alpha_smatrix
    from specdiff.resolvent import boundary_value
    bv = boundary_value(pair, np.array(grid))
    cond = np.linalg.cond(np.eye(pair.k_dim) + bv.t0 @ pair.j)
    return cond, dict(alpha_smatrix(bv, pair.j).diagnostics)["unitarity_defect"]


def test_failing_points_inside_a_batch_are_recorded_as_single_point_runs(tmp_path,
                                                                          monkeypatch):
    # thresholds between the grid's own cond(I + T0 J) and S-tilde unitarity defects
    # make some points fail inside one batch; 2.5 fails at the band edge
    model, grid = BATCH_CASES["lattice1d"]
    grid = [float(x) for x in grid]
    pair = opcore.build_model(opcore.ModelSpec.from_json(json.dumps(model)))
    cond, defect = _cond_and_defect(pair, grid)
    monkeypatch.setattr(tol, "RESONANCE_COND", float(np.quantile(cond, 0.8)))
    monkeypatch.setattr(tol, "UNITARITY", float(np.sort(defect)[len(grid) // 3]))
    grid.insert(len(grid) // 2, 2.5)
    record = run(ExperimentConfig.from_json(json.dumps(
        _config(tmp_path, model=model, lambda_grid=grid))))

    single_errors, single_lines = [], []
    for i, lam in enumerate(grid):
        one = run(ExperimentConfig.from_json(json.dumps(
            _config(tmp_path, model=model, lambda_grid=[lam],
                    output_dir=str(tmp_path / f"p{i}")))))
        single_errors.extend(one.errors)
        single_lines.extend((tmp_path / f"p{i}" / "alpha_sweep.csv").read_text().splitlines()[1:])
    assert {e["type"] for e in record.errors} == {"ResonanceError", "AlphaError",
                                                  "ResolventError"}
    assert 0 < len(record.errors) < len(grid)
    assert record.errors == single_errors
    assert (tmp_path / "out" / "alpha_sweep.csv").read_text().splitlines()[1:] == single_lines


def _counting_boundary_value(monkeypatch):
    sizes = []
    original = harness.boundary_value

    def counting(pair, lam, route="auto"):
        sizes.append(np.size(lam))
        return original(pair, lam, route)

    monkeypatch.setattr(harness, "boundary_value", counting)
    return sizes


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_a_passing_grid_is_one_boundary_value_call(tmp_path, monkeypatch, kind):
    sizes = _counting_boundary_value(monkeypatch)
    doc = _config(tmp_path, kind=kind, lambda_grid={"min": -1.8, "max": 1.8, "count": 200})
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    assert record.status == "complete" and record.results["rows"] >= 200
    assert sizes == [200]


def test_batch_size_rule(tmp_path, monkeypatch):
    # at most (dim // k)^2 points per batch: one point when V is dense (k = dim),
    # 1089 = (101 // 3)^2 for three sites on 101
    sizes = _counting_boundary_value(monkeypatch)
    model, grid = BATCH_CASES["random_traceclass"]
    run(ExperimentConfig.from_json(json.dumps(
        _config(tmp_path, model=model, lambda_grid=[float(x) for x in grid]))))
    assert sizes == [1] * len(grid)
    sizes.clear()
    doc = _config(tmp_path, model=BATCH_CASES["lattice1d"][0], output_dir=str(tmp_path / "l"),
                  lambda_grid={"min": -1.8, "max": 1.8, "count": 1200})
    assert run(ExperimentConfig.from_json(json.dumps(doc))).status == "complete"
    assert sizes == [1089, 111]
