"""Tests of the benchmark itself (not of specdiff).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import END, ERROR, META, NAME, OP, PARENT, START  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = inputs.dumps(inputs.generate(workload, 7))
    assert inputs.dumps(inputs.generate(workload, 7)) == first
    # and in a fresh interpreter, whatever its hash seed
    code = f"import inputs; print(inputs.dumps(inputs.generate({workload!r}, 7)))"
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == first


def _lambdas(ops):
    return [set(op["config"].get("lambda_grid", ())) if op["call"] == "run"
            else set(op.get("lambdas", ())) for op in ops]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_changes_draws_keeps_canonical_points(workload):
    a, b = (inputs.generate(workload, s)["ops"] for s in (1, 2))
    assert inputs.dumps(a) != inputs.dumps(b)
    assert len(a) == len(b)
    for ops in (a, b):
        configs = [op["config"] for op in ops if op["call"] == "run"]
        if workload == "ladder":
            assert configs[0]["lambda_grid"] == inputs.LADDER_CANONICAL_LAMBDAS
            assert configs[0]["model"]["potential"] == inputs.CANONICAL_POTENTIAL
        elif workload == "sweep":
            for grid in _lambdas(ops):
                assert grid >= {0.7}
            for c in configs:
                assert set(c["lambda_grid"]) >= set(inputs.SWEEP_CANONICAL_LAMBDAS)
        elif workload == "phi":
            jumps = configs[0]["phi"]["jumps"]
            assert [[j["lambda"], j["left"][0], j["right"][0]] for j in jumps] == \
                inputs.PHI_CANONICAL_JUMPS
        else:
            assert (configs[0]["hankel_n"], configs[0]["hankel_t"]) == inputs.HANKEL_CANONICAL
    # seeds change values, never the amount of work
    sizes = [[len(g) for g in _lambdas(ops)] for ops in (a, b)]
    assert sizes[0] == sizes[1]


def _span(name, start, end, parent=-1, raised=False, meta=None):
    return [name, start, end, parent, 0, raised, meta]


def test_self_time_on_synthetic_span_tree():
    # harness.run [0, 10]
    #   opcore.build_model [1, 2]
    #   alpha.d_spectrum_ladder [2, 9]
    #     linalg.eigvalsh [3, 7]
    #     alpha.transient_filter [7, 8]       nested in its own layer
    #       linalg.norm [7.2, 7.5]  raised
    spans = [
        _span("harness.run", 0.0, 10.0, meta={"points": 2}),
        _span("opcore.build_model", 1.0, 2.0, 0, meta={"bytes": 100}),
        _span("alpha.d_spectrum_ladder", 2.0, 9.0, 0, meta={"rungs": 3}),
        _span("linalg.eigvalsh", 3.0, 7.0, 2, meta={"arg_bytes": 8, "dense_n3": 27}),
        _span("alpha.transient_filter", 7.0, 8.0, 2),
        _span("linalg.norm", 7.2, 7.5, 4, raised=True, meta={"arg_bytes": 4}),
    ]
    m = tracing.layer_metrics(spans, wall_s=12.0)
    assert m["harness.self_s"] == pytest.approx(2.0)
    assert m["opcore.self_s"] == pytest.approx(1.0)
    assert m["alpha.busy_s"] == pytest.approx(7.0)          # not 7 + 1
    assert m["alpha.self_s"] == pytest.approx(7.0 - 4.0 - 0.3)
    assert m["linalg.busy_s"] == pytest.approx(4.3)
    assert m["linalg.self_s"] == pytest.approx(4.3)
    assert m["alpha.calls"] == 2 and m["linalg.errors"] == 1 and m["alpha.errors"] == 0
    layers_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers_self + m["trace.unattributed_s"] == pytest.approx(12.0)
    assert m["alpha.eigs_per_rung"] == pytest.approx(1 / 3)
    assert m["harness.builds_per_point"] == pytest.approx(0.5)
    assert m["linalg.dense_n3"] == 27 and m["linalg.arg_bytes"] == 12
    assert m["opcore.build_model.bytes"] == 100


def test_tracer_wraps_every_binding_and_restores_them():
    from specdiff import alpha, harness, opcore, pcfunc
    import numpy as np
    originals = (opcore.build_model, harness.build_model, alpha.build_model,
                 pcfunc.build_model, np.linalg.eigvalsh)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 5
        spec = opcore.ModelSpec("lattice1d", 5, ((0, 1.0),))
        harness.build_model(spec)
        pcfunc.build_model(spec)
        np.linalg.eigvalsh(np.eye(3))
        with pytest.raises(alpha.AlphaError):
            alpha.d_spectrum_ladder(spec, 0.0, (4, 8))
    finally:
        tracer.uninstall()
    assert (opcore.build_model, harness.build_model, alpha.build_model,
            pcfunc.build_model, np.linalg.eigvalsh) == originals
    names = [s[NAME] for s in tracer.spans]
    assert names == ["opcore.build_model", "opcore.build_model", "linalg.eigvalsh",
                     "alpha.d_spectrum_ladder"]
    assert all(s[OP] == 5 and s[END] >= s[START] and s[PARENT] == -1 for s in tracer.spans)
    assert tracer.spans[0][META]["bytes"] > 0
    assert tracer.spans[2][META] == {"arg_bytes": 72, "dense_n3": 27}
    assert tracer.spans[3][ERROR]


def test_exact_eigenvalue_counts_behind_the_ladder_check():
    import numpy as np
    from scipy.linalg import eigh_tridiagonal
    import ops
    # 0 is an eigenvalue of every lattice1d H0; exactly n eigenvalues lie below it
    assert ops._is_h0_eigenvalue(1000, 0.0) and ops._count_below(1000, (), 0.0) == 1000
    assert ops._is_h0_eigenvalue(500, -1.0) and not ops._is_h0_eigenvalue(1000, -1.0)
    for n, potential, lam in ((250, ((0, 1.0),), 0.3), (300, ((0, -1.2), (2, 0.5)), -2.1),
                              (200, (), 0.7)):
        diag = np.zeros(2 * n + 1)
        for site, value in potential:
            diag[site + n] = value
        w = eigh_tridiagonal(diag, np.ones(2 * n), eigvals_only=True)
        assert ops._count_below(n, potential, lam) == int(np.sum(w < lam))


def test_metric_names_and_units():
    bench = _bench()
    declared = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for m in declared:
        assert NAME_RE.fullmatch(m["name"]), m["name"]
        assert UNIT_RE.fullmatch(m["unit"]), m
    # the metrics a traced run reports are exactly the declared per-layer ones,
    # with the declared units
    produced = tracing.layer_metrics([], wall_s=1.0)
    produced["trace.overhead_share"] = 0.0          # added by worker.py
    produced["resolvent.extrap_ok_ratio"] = 0.0
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(produced) == set(per_layer)
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
    e2e = run.metrics_of({"walls": [1.0], "attempted": 2, "failed": 1,
                          "peak_rss_mb": 1.0}, 1.0, trace=0)
    assert {k: v["unit"] for k, v in e2e.items()} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}


def test_benchmark_json_explains_each_workload():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        words = set(re.findall(r"[A-Za-z0-9_.]+", w["why"]))
        assert words & e2e, w["name"]
        assert words & per_layer, w["name"]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
