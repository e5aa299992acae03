"""Sandwiched resolvents, boundary values, Stone-formula consistency."""

import numpy as np
import pytest

from specdiff.alpha import alpha_derivative, alpha_smatrix, fredholm_check
from specdiff.opcore import ModelSpec, build_model
from specdiff.resolvent import (ExtrapolationError, ResolventError, ResonanceError,
                                _richardson, boundary_value, lattice_w,
                                stone_consistency, t0_of_z, t_of_z)


def _pair(v=0.5, n=50, sites=((0,),)):
    return build_model(ModelSpec("lattice1d", n, tuple((s[0], v) for s in sites)))


def test_empty_potential_gives_empty_matrices():
    # V = 0 takes the general path on its empty support, by either route: T0 is 0 x 0,
    # alpha is 0 and sigma_min of an empty matrix is 1
    for spec, route in ((ModelSpec("lattice1d", 5), "closed_form"),
                        (ModelSpec("jacobi", 5), "extrapolated")):
        pair = build_model(spec)
        assert t0_of_z(pair, 1j).shape == (0, 0)
        bv = boundary_value(pair, 0.0)
        assert bv.route == route and bv.t0.shape == (0, 0)
        assert bv.err_estimate == 0.0
        assert alpha_derivative(bv, pair.j).value == alpha_smatrix(bv, pair.j).value == 0.0
        chk = fredholm_check(bv, pair.j)
        assert chk["sigma_min_0"] == chk["sigma_min_1"] == 1 and chk["fredholm"] is True


def test_lattice_w_branch():
    # |w| < 1 off the band, boundary limit e^{-i kappa} on it
    assert abs(lattice_w(3.0 + 1e-3j)) < 1.0
    w = lattice_w(0.0)
    assert w == pytest.approx(-1j, abs=1e-14)
    # continuity with the limit from above the band
    w_eps = lattice_w(0.0 + 1e-9j)
    assert abs(w - w_eps) <= 1e-8


def test_free_resolvent_defining_identity():
    # (H0 - z) R0(z) delta_y = delta_y on a window well inside a wide truncation
    n_wide = 200
    z = 0.3 + 0.7j
    w = lattice_w(z)
    x = np.arange(-n_wide, n_wide + 1)
    col = w ** np.abs(x) / (w - 1.0 / w)     # R0(z) applied to delta_0
    h0 = np.diag(np.ones(2 * n_wide), 1) + np.diag(np.ones(2 * n_wide), -1)
    out = h0 @ col - z * col
    delta = np.zeros(2 * n_wide + 1)
    delta[n_wide] = 1.0
    window = slice(n_wide - 50, n_wide + 51)
    assert np.max(np.abs(out[window] - delta[window])) <= 1e-12


def test_t0_complex_symmetry():
    pair = build_model(ModelSpec("lattice1d", 40, ((-2, 0.5), (0, -1.0), (3, 0.25))))
    for mode, z in (("infinite_lattice", 0.3 + 0.2j), ("truncated", 0.3 + 0.2j)):
        t0 = t0_of_z(pair, z, mode=mode)
        assert np.linalg.norm(t0 - t0.T, 2) <= 1e-12


def test_truncated_t0_is_banded_for_every_kind():
    # random_traceclass has a dense V but the same tridiagonal H0
    pair = build_model(ModelSpec("random_traceclass", 15, decay_rate=1.5, seed=2))
    h0 = pair.dense("free")
    for z in (0.3 + 0.2j, -1.1 + 1e-3j, 2.5 - 0.7j):
        ref = pair.g @ np.linalg.solve(h0 - z * np.eye(h0.shape[0]), pair.g.T.astype(complex))
        assert np.max(np.abs(t0_of_z(pair, z, "truncated") - ref)) <= 1e-12


def test_t0_mode_errors():
    pair = _pair()
    with pytest.raises(ResolventError):
        t0_of_z(pair, 0.5, mode="truncated")
    with pytest.raises(ResolventError):
        t0_of_z(pair, 1.95, mode="infinite_lattice")
    with pytest.raises(ResolventError):
        t0_of_z(pair, 1j, mode="bogus")


def test_herglotz_property():
    pair = build_model(ModelSpec("lattice1d", 40, ((-1, 1.0), (2, -0.5))))
    for z in (1j, 0.5 + 0.25j, -1.2 + 2j):
        for mode in ("infinite_lattice", "truncated"):
            b = (t0_of_z(pair, z, mode=mode) - t0_of_z(pair, z, mode=mode).conj().T) / 2j
            assert np.linalg.eigvalsh((b + b.conj().T) / 2).min() >= -1e-10


def test_t_of_z_trivial_and_scalar_identity():
    pair = _pair()
    assert t_of_z(pair, np.zeros((0, 0), dtype=complex)).shape == (0, 0)
    t0 = t0_of_z(pair, 0.0, mode="infinite_lattice")
    t = t_of_z(pair, t0)
    lhs = (1.0 + t0[0, 0] * pair.j[0, 0]) * (1.0 - t[0, 0] * pair.j[0, 0])
    assert abs(lhs - 1.0) <= 1e-12


def test_t_matches_truncated_resolvent_oracle():
    pair = build_model(ModelSpec("lattice1d", 500, ((0, 0.5),)))
    t0 = t0_of_z(pair, 1j, mode="infinite_lattice")
    t = t_of_z(pair, t0)
    h = pair.dense("full")
    full = pair.g @ np.linalg.solve(h - 1j * np.eye(h.shape[0]), pair.g.T.astype(complex))
    assert np.max(np.abs(t - full)) <= 1e-6


def test_resonance_guard():
    pair = _pair()
    with pytest.raises(ResonanceError):
        t_of_z(pair, np.array([[-1.0 + 0j]]))


def test_inversion_identities():
    pair = build_model(ModelSpec("lattice1d", 60, ((0, 1.0), (1, 1.0))))
    bv = boundary_value(pair, 0.4)
    k = pair.k_dim
    eye = np.eye(k)
    j = pair.j
    assert np.linalg.norm((eye - bv.t @ j) @ (eye + bv.t0 @ j) - eye, 2) <= 1e-9
    assert np.linalg.norm((eye - j @ bv.t) @ (eye + j @ bv.t0) - eye, 2) <= 1e-9


def test_boundary_value_invariants():
    pair = _pair()
    bv = boundary_value(pair, 0.0)
    assert bv.route == "closed_form"
    assert np.linalg.eigvalsh(bv.b0).min() >= -1e-10
    assert np.linalg.eigvalsh(bv.b).min() >= -1e-10
    assert np.array_equal(bv.f0p, bv.b0 / np.pi)
    assert np.array_equal(bv.fp, bv.b / np.pi)
    assert np.linalg.norm(bv.a0 - np.real(bv.t0 + bv.t0.conj().T) / 2, 2) <= 1e-12


def test_band_margin_enforced():
    pair = _pair()
    with pytest.raises(ResolventError):
        boundary_value(pair, 1.95)


def test_off_band_imaginary_part_vanishes():
    pair = build_model(ModelSpec("lattice1d", 30, ((0, 0.5), (2, 1.0))))
    for lam in (2.5, 3.0, -2.7, -4.0):
        t0 = t0_of_z(pair, complex(lam), mode="infinite_lattice")
        assert np.max(np.abs(t0.imag)) == 0.0


def test_extrapolated_route_matches_closed_form():
    pair = build_model(ModelSpec("lattice1d", 2000, ((0, 1.0),)))
    exact = boundary_value(pair, 0.7, route="closed_form")
    approx = boundary_value(pair, 0.7, route="extrapolated")
    assert approx.err_estimate > 0.0
    assert np.max(np.abs(approx.t0 - exact.t0)) <= 10.0 * approx.err_estimate


def test_richardson_rejects_non_converging():
    seq = [np.array([[1.0]]), np.array([[1.1]]), np.array([[1.4]]),
           np.array([[2.0]]), np.array([[3.0]])]
    with pytest.raises(ExtrapolationError):
        _richardson(seq)


def test_boundary_value_json():
    import json
    bv = boundary_value(_pair(), 0.0)
    doc = json.loads(bv.to_json())
    assert doc["lambda"] == 0.0
    assert doc["route"] == "closed_form"
    assert doc["T0"][0][0] == [bv.t0[0, 0].real, bv.t0[0, 0].imag]


def test_stone_consistency():
    assert stone_consistency(build_model(ModelSpec("lattice1d", 100)),
                             -0.5, 0.5, 64) == 0.0
    pair = build_model(ModelSpec("lattice1d", 2000, ((0, 0.5),)))
    d200 = stone_consistency(pair, -0.5, 0.5, 200)
    assert d200 <= 1e-3
    d400 = stone_consistency(pair, -0.5, 0.5, 400)
    assert d400 <= d200
    with pytest.raises(ResolventError):
        stone_consistency(pair, -0.5, 0.5, 4)
