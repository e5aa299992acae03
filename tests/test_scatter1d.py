"""Transfer-matrix vs stationary scattering on the 1D lattice."""

import numpy as np
import pytest

from specdiff.alpha import alpha_derivative, alpha_smatrix, stilde_matrix
from specdiff.opcore import ModelError, ModelSpec, build_model
from specdiff.resolvent import boundary_value
from specdiff.scatter1d import ScatteringError, smatrix_stationary, smatrix_transfer

GRID = np.linspace(-1.5, 1.5, 51)
POTS = (((0, 0.5),), ((0, 1.0), (1, -0.5)), ((-2, 0.3), (0, 0.7), (1, 0.2)))


def test_zero_potential_identity():
    sc = smatrix_transfer((), 0.3)
    assert sc.t == 1.0
    assert np.array_equal(sc.s, np.eye(2, dtype=complex))
    pair = build_model(ModelSpec("lattice1d", 20))
    assert np.array_equal(smatrix_stationary(pair, boundary_value(pair, 0.3)),
                          np.eye(2, dtype=complex))


def test_band_edge_rejected():
    with pytest.raises(ScatteringError):
        smatrix_transfer(((0, 0.5),), 1.95)


@pytest.mark.parametrize("potential", [((0.5, 1.0),), ((True, 1.0),), (("1", 1.0),),
                                       ((0, 1.0), (0, 0.5))],
                         ids=("fractional_site", "bool_site", "string_site", "repeated_site"))
def test_potential_is_read_by_the_model_rule(potential):
    # the transfer route reads a potential as ModelSpec does: a site that is not an integer is
    # not rounded to one, and a site given twice does not keep only its last value
    with pytest.raises(ModelError):
        smatrix_transfer(potential, 0.3)


def test_unitarity_and_phases_on_grid():
    for pot in POTS:
        for lam in GRID:
            sc = smatrix_transfer(pot, lam)
            assert np.linalg.norm(sc.s.conj().T @ sc.s - np.eye(2), 2) <= 1e-10
            assert abs(abs(sc.t) ** 2 + abs(sc.r_plus) ** 2 - 1.0) <= 1e-10
            assert abs(sc.r_plus * np.conj(sc.t) + sc.t * np.conj(sc.r_minus)) <= 1e-10
            assert np.max(np.abs(np.abs(np.linalg.eigvals(sc.s)) - 1.0)) <= 1e-8


def test_transfer_matches_alpha_routes():
    pair = build_model(ModelSpec("lattice1d", 20, ((0, 0.5),)))
    bv = boundary_value(pair, 0.0)
    sc = smatrix_transfer(pair.spec.potential, 0.0)
    half = 0.5 * np.linalg.norm(sc.s - np.eye(2), 2)
    assert abs(half - alpha_derivative(bv, pair.j).value) <= 1e-6


def test_stationary_matches_transfer_singular_values():
    for pot in POTS:
        spec = ModelSpec("lattice1d", 20, pot)
        pair = build_model(spec)
        for lam in (-0.8, 0.0, 0.5):
            bv = boundary_value(pair, lam)
            s_stat = smatrix_stationary(pair, bv)
            s_tr = smatrix_transfer(pot, lam).s
            sv_stat = np.linalg.svd(s_stat - np.eye(2), compute_uv=False)
            sv_tr = np.linalg.svd(s_tr - np.eye(2), compute_uv=False)
            assert np.max(np.abs(sv_stat - sv_tr)) <= 1e-8
            assert np.linalg.norm(s_stat.conj().T @ s_stat - np.eye(2), 2) <= 1e-8


def test_norm_bridge_on_grid():
    # ||S - I|| agrees with ||S-tilde - I|| and with 2*alpha across the band
    pot = ((0, 0.5), (1, 0.25))
    spec = ModelSpec("lattice1d", 20, pot)
    pair = build_model(spec)
    for lam in GRID:
        bv = boundary_value(pair, lam)
        st = stilde_matrix(bv, pair.j)
        n_st = np.linalg.norm(st - np.eye(st.shape[0]), 2)
        n_s = np.linalg.norm(smatrix_transfer(pot, lam).s - np.eye(2), 2)
        assert abs(n_s - n_st) <= 1e-8
        assert abs(0.5 * n_s - alpha_smatrix(bv, pair.j).value) <= 1e-8


def test_continuity_lipschitz_report():
    pot = ((0, 1.0),)
    s_vals = [smatrix_transfer(pot, lam).s for lam in GRID]
    lips = [np.linalg.norm(s_vals[i + 1] - s_vals[i], 2) / (GRID[i + 1] - GRID[i])
            for i in range(len(GRID) - 1)]
    assert max(lips) <= 2.0          # empirical Lipschitz bound for this family


def test_stationary_requires_closed_form():
    import dataclasses
    pair = build_model(ModelSpec("lattice1d", 20, ((0, 0.5),)))
    bv = dataclasses.replace(boundary_value(pair, 0.0), route="extrapolated")
    with pytest.raises(ScatteringError):
        smatrix_stationary(pair, bv)
