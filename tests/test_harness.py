"""Experiment runner, manifests, determinism, CLI exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import specdiff
from specdiff import harness, opcore
from specdiff import tolerances as tol
from specdiff.cli import main
from specdiff.harness import ConfigError, ExperimentConfig, run, validate

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
        assert res.exit_code == 1 and f"config error: model config lacks '{key}'" in res.output
    model = {"kind": "lattice1d", "n_half": 5}
    res = CliRunner().invoke(main, ["validate", "--config",
                                    _write(tmp_path, _config(tmp_path, model=model))])
    assert res.exit_code == 0 and "config ok" in res.output


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
    # an unsorted ladder passes the static checks and fails in the shared call
    doc = _config(tmp_path, kind="d_ladder", lambda_grid=[-1.0, 0.0, 0.7],
                  n_list=[40, 20, 80])
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    assert record.status == "partial"
    assert [e["lambda"] for e in record.errors] == [-1.0, 0.0, 0.7]
    assert all("ascending" in e["error"] for e in record.errors)
    assert all(e["type"] == "AlphaError" for e in record.errors)
    assert not record.files

    doc = _config(tmp_path, kind="d_ladder", lambda_grid=[-1.0, 0.7],
                  n_list=[20, 40, 80], output_dir=str(tmp_path / "ok"))
    record = run(ExperimentConfig.from_json(json.dumps(doc)))
    assert record.status == "complete"
    assert set(record.files) == {"d_ladder_lambda_-1.json", "d_ladder_lambda_+0.7.json"}


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


@pytest.mark.parametrize("field,value,key", [
    ("lambda_grid", {"min": -1.0, "max": 1.0}, "count"),
    ("phi", {"jumps": [{"lambda": 0.5, "left": [0, 0]}]}, "right"),
])
def test_malformed_nested_config_is_a_config_error(tmp_path, field, value, key):
    doc = _config(tmp_path, **{field: value})
    with pytest.raises(ConfigError, match=f"config lacks key '{key}'"):
        ExperimentConfig.from_json(json.dumps(doc))
    res = CliRunner().invoke(main, ["validate", "--config", _write(tmp_path, doc)])
    assert res.exit_code == 1 and f"config error: config lacks key '{key}'" in res.output


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
