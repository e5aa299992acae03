"""Acceptance gate: ten criteria, one test (one pass/fail line) per criterion.

Each test computes at the stated scale and asserts the stated tolerance.
Shared heavy results are cached at module scope; alpha values produced along
the way are registered so the final global-cap criterion sweeps all of them.
"""

import functools

import numpy as np
import pytest

from specdiff.alpha import (alpha_derivative, alpha_proj_limit, alpha_smatrix,
                            d_spectrum_ladder, fredholm_check)
from specdiff.hankelmodel import build_l_operators, gamma_matrix, hankel_bound_check
from specdiff.opcore import ModelSpec, build_model
from specdiff.pcfunc import (PiecewiseFn, accumulation_set, cross_term_compactness,
                             empirical_spectrum, hausdorff, symbol_difference)
from specdiff.resolvent import boundary_value
from specdiff.scatter1d import smatrix_stationary, smatrix_transfer

V_SET = (0.25, 0.5, 1.0)
LAM_SET = (-1.0, 0.0, 0.7)

ALPHA_REGISTRY = []


def _register(value):
    ALPHA_REGISTRY.append(float(value))
    return value


@functools.lru_cache(maxsize=None)
def _pair(v, n=50):
    return build_model(ModelSpec("lattice1d", n, ((0, v),)))


@functools.lru_cache(maxsize=None)
def _bv(v, lam, n=50):
    return boundary_value(_pair(v, n), lam)


@functools.lru_cache(maxsize=None)
def _ladder_c4():
    return d_spectrum_ladder(ModelSpec("lattice1d", 1000, ((0, 1.0),)), 0.0,
                             (1000, 2000, 4000))


def test_criterion_01_route_identity():
    worst = 0.0
    for v in V_SET:
        for lam in LAM_SET:
            pair = _pair(v)
            bv = _bv(v, lam)
            a1 = _register(alpha_derivative(bv, pair.j).value)
            a2 = _register(alpha_smatrix(bv, pair.j).value)
            worst = max(worst, abs(a1 - a2))
    print(f"criterion 1 route identity: max |derivative - smatrix| = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_02_scattering_bridge():
    worst_alpha = 0.0
    worst_sv = 0.0
    for v in V_SET:
        for lam in LAM_SET:
            pair = _pair(v)
            bv = _bv(v, lam)
            sc = smatrix_transfer(pair.spec.potential, lam)
            half = 0.5 * np.linalg.norm(sc.s - np.eye(2), 2)
            a1 = _register(alpha_derivative(bv, pair.j).value)
            worst_alpha = max(worst_alpha, abs(half - a1))
            s_stat = smatrix_stationary(pair, bv)
            sv_stat = np.linalg.svd(s_stat - np.eye(2), compute_uv=False)
            sv_tr = np.linalg.svd(sc.s - np.eye(2), compute_uv=False)
            worst_sv = max(worst_sv, float(np.max(np.abs(sv_stat - sv_tr))))
    print(f"criterion 2 scattering bridge: |half-norm - alpha| = {worst_alpha:.3e}, "
          f"sv mismatch = {worst_sv:.3e}")
    assert worst_alpha <= 1e-6
    assert worst_sv <= 1e-8


@pytest.mark.slow
def test_criterion_03_projection_limit_route():
    pair = build_model(ModelSpec("lattice1d", 4000, ((0, 0.5),)))
    ref = _register(alpha_derivative(_bv(0.5, 0.0), _pair(0.5).j).value)
    est = alpha_proj_limit(pair, 0.0, (0.4, 0.2, 0.1, 0.05))
    _register(est.value)
    diff = abs(est.value - ref)
    print(f"criterion 3 projection-limit route: |extrapolated - reference| = {diff:.3e}")
    assert diff <= 5e-3


@pytest.mark.slow
def test_criterion_04_essential_spectrum_filling():
    ref = _register(alpha_derivative(_bv(1.0, 0.0), _pair(1.0).j).value)
    est = _ladder_c4()
    _register(est.alpha_empirical)
    rel = abs(est.alpha_empirical - ref) / ref
    nz = np.sort(est.filtered_cloud[np.abs(est.filtered_cloud) > 1e-6])
    sym = float(np.max(np.abs(nz + nz[::-1]))) if nz.size else 0.0
    print(f"criterion 4 filling: alpha_empirical={est.alpha_empirical:.4f} "
          f"(ref {ref:.4f}, rel err {rel:.3f}), fill={est.fill_distance:.3f}, "
          f"symmetry={sym:.2e}, b4={max(est.b4_residuals):.2e}")
    assert sym <= 1e-6
    assert max(est.b4_residuals) <= 1e-9
    assert rel <= 0.02
    assert est.fill_distance <= 0.05


@pytest.mark.slow
def test_criterion_05_off_spectrum_compactness():
    est = d_spectrum_ladder(ModelSpec("lattice1d", 1000, ((0, 0.5),)), -3.0,
                            (1000, 2000, 4000))
    counts = [int(np.sum(np.abs(c) > 0.1)) for c in est.eigenvalue_clouds]
    print(f"criterion 5 off-spectrum compactness: counts {counts}")
    assert counts[0] == counts[1] == counts[2]


def test_criterion_06_hankel_model():
    w = np.linalg.eigvalsh(gamma_matrix(200, 50.0).matrix)
    kernels = (
        (lambda t: np.exp(-t), 1.0),
        (lambda t: -np.expm1(-t) / t, 1.0),
        (lambda t: -2.0 * np.expm1(-t) / t, 2.0),
    )
    bounds_ok = all(hankel_bound_check(k, c, 120, 50.0)["bound_ok"]
                    for k, c in kernels)
    print(f"criterion 6 hankel model: spectrum in [{w.min():.2e}, {w.max():.6f}], "
          f"comparison bounds ok={bounds_ok}")
    assert w.min() >= -1e-8
    assert w.max() <= np.pi + 1e-6
    assert bounds_ok
    assert w.max() >= np.pi - 0.05


def test_criterion_07_projection_product_identity():
    pair = build_model(ModelSpec("lattice1d", 1000, ((0, 0.5),)))
    r200 = build_l_operators(pair, 0.0, 200, 50.0)["residual_b16"]
    r400 = build_l_operators(pair, 0.0, 400, 50.0)["residual_b16"]
    print(f"criterion 7 product identity: residual n=200 {r200:.3e}, "
          f"n=400 {r400:.3e}")
    assert r200 <= 1e-3
    assert r400 <= 0.5 * r200


def test_criterion_08_fredholm_equivalence():
    ok_side = True
    ok_coincide = True
    for v in np.arange(0.1, 3.01, 0.1):
        pair = build_model(ModelSpec("lattice1d", 50, ((0, round(float(v), 2)),)))
        bv = boundary_value(pair, 0.0)
        chk = fredholm_check(bv, pair.j)     # raises if sides straddle
        a = _register(alpha_derivative(bv, pair.j).value)
        ok_side &= (chk["sigma_min_0"] > 1e-6) == (chk["sigma_min_1"] > 1e-6)
        ok_coincide &= chk["fredholm"] == (a < 1.0 - 1e-6)
    print(f"criterion 8 fredholm equivalence: same-side={ok_side}, "
          f"coincides with alpha<1: {ok_coincide}")
    assert ok_side and ok_coincide


@pytest.mark.slow
def test_criterion_09_phi_calculus():
    spec = ModelSpec("lattice1d", 1000, ((0, 1.0),))
    phi = PiecewiseFn(jumps=((-0.5, 0.0, 1.0), (0.5, 0.0, 0.5)))
    a_minus = _register(alpha_derivative(_bv(1.0, -0.5), _pair(1.0).j).value)
    a_plus = _register(alpha_derivative(_bv(1.0, 0.5), _pair(1.0).j).value)
    a = max(1.0 * a_minus, 0.5 * a_plus)
    res = empirical_spectrum(spec, phi, (1000, 2000, 4000))
    acc = accumulation_set(res["clouds"][-1], res["clouds"][-2])
    target = np.linspace(-a, a, 4001)
    dist = hausdorff(np.concatenate([acc, [0.0]]), target)

    rep = cross_term_compactness(spec, PiecewiseFn(jumps=((-0.5, 0.0, 1.0),)),
                                 PiecewiseFn(jumps=((0.5, 0.0, 0.5),)),
                                 (1000, 4000))
    tracked = rep["tracked_values"]

    # negative control: identical jump points must show no decay
    control = []
    for n in (1000, 4000):
        pair = build_model(ModelSpec("lattice1d", n, ((0, 1.0),)))
        d1 = symbol_difference(pair, PiecewiseFn(jumps=((-0.5, 0.0, 1.0),)))
        d2 = symbol_difference(pair, PiecewiseFn(jumps=((-0.5, 0.0, 0.5),)))
        from scipy.sparse.linalg import svds
        s = svds(d1 @ d2, k=1, v0=np.full(d1.shape[0], d1.shape[0] ** -0.5),
                 return_singular_vectors=False)
        control.append(float(s[0]))
    no_decay = control[1] >= 0.5 * control[0]
    print(f"criterion 9 phi-calculus: hausdorff={dist:.3f} (target [-{a:.3f}, "
          f"{a:.3f}]), cross 20th sv {tracked[0]:.2e}->{tracked[1]:.2e}, "
          f"control 1st sv {control[0]:.3f}->{control[1]:.3f}")
    assert no_decay
    assert dist <= 0.05
    assert tracked[1] <= 0.5 * tracked[0]


def test_criterion_10_alpha_cap_global():
    assert len(ALPHA_REGISTRY) >= 40
    worst = max(ALPHA_REGISTRY)
    print(f"criterion 10 global cap: {len(ALPHA_REGISTRY)} alpha values, "
          f"max = {worst:.8f}")
    assert worst <= 1.0 + 1e-6
