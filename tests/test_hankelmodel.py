"""Nystrom Hankel models, comparison bounds, and the projection-product identity."""

import numpy as np
import pytest

from specdiff.hankelmodel import (HankelError, build_l_operators, gamma_kernel,
                                  gamma_matrix, gamma_tensor_spectrum,
                                  graded_grid, hankel_bound_check)
from specdiff.opcore import ModelSpec, build_model, eig, leading_singvals
from specdiff.resolvent import boundary_value


def test_grid_shape_and_guards():
    nodes, weights = graded_grid(64, 50.0)
    assert nodes.shape == weights.shape == (64,)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(50.0, rel=1e-12)
    with pytest.raises(HankelError):
        graded_grid(4, 50.0)
    with pytest.raises(HankelError):
        graded_grid(64, 5.0)


def test_gamma_matrix_spectrum_window_and_positivity():
    disc = gamma_matrix(200, 50.0)
    assert np.linalg.norm(disc.matrix - disc.matrix.T, 2) <= 1e-12
    w = np.linalg.eigvalsh(disc.matrix)
    assert w.min() >= -1e-8
    assert w.max() <= np.pi + 1e-6
    assert np.all(gamma_kernel(disc.nodes[:, None] + disc.nodes[None, :]) > 0)


def test_gamma_top_eigenvalue_example():
    # stated expectation at (n=200, T=50); the compressed operator at this
    # truncation tops out near 1.96, so this records the shortfall honestly
    w = np.linalg.eigvalsh(gamma_matrix(200, 50.0).matrix)
    assert w.max() >= np.pi - 0.05


def test_gamma_two_grid_stability_and_t_refinement_trend():
    m1 = np.linalg.eigvalsh(gamma_matrix(400, 50.0).matrix).max()
    m2 = np.linalg.eigvalsh(gamma_matrix(800, 50.0).matrix).max()
    assert abs(m1 - m2) <= 1e-3            # converged in quadrature at fixed T
    tops = [np.linalg.eigvalsh(gamma_matrix(200, t).matrix).max()
            for t in (50.0, 500.0, 5000.0)]
    assert tops[0] < tops[1] < tops[2] <= np.pi + 1e-6


def test_carleman_bound_exponential_kernel():
    rec = hankel_bound_check(lambda t: np.exp(-t), 1.0, 120, 50.0)
    assert rec["bound_ok"]
    assert rec["norm"] <= np.pi + 1e-6


def test_carleman_bound_gamma_kernel_and_linearity():
    rec1 = hankel_bound_check(lambda t: -np.expm1(-t) / t, 1.0, 120, 50.0)
    assert rec1["bound_ok"]
    assert rec1["norm"] <= np.pi + 1e-6
    rec2 = hankel_bound_check(lambda t: -2.0 * np.expm1(-t) / t, 2.0, 120, 50.0)
    assert rec2["norm"] == pytest.approx(2.0 * rec1["norm"], rel=1e-12)


def test_carleman_hypothesis_violation_reported():
    nodes, _ = graded_grid(64, 50.0)
    first = next(t for t in nodes if 5.0 / (1.0 + t) > 1.0 / t + 1e-12)
    with pytest.raises(HankelError, match=f"violated at t={first:.3e} "):
        hankel_bound_check(lambda t: 5.0 / (1.0 + t), 1.0, 64, 50.0)


def test_gamma_tensor_trivial_and_bound():
    assert np.array_equal(gamma_tensor_spectrum(np.zeros((2, 2)), 64, 20.0),
                          np.zeros(128))
    w = gamma_tensor_spectrum(np.eye(1), 200, 50.0)
    assert w.min() >= -1e-8 and w.max() <= np.pi ** 2 + 1e-6
    with pytest.raises(HankelError):
        gamma_tensor_spectrum(np.array([[-1.0]]), 64, 20.0)


def test_gamma_tensor_two_block_refinement():
    pi2 = np.pi ** 2
    w400 = gamma_tensor_spectrum(np.diag([1.0, 0.25]), 400, 50.0)
    assert w400.max() <= pi2 * 1.0 + 1e-6
    w_finer = gamma_tensor_spectrum(np.diag([1.0, 0.25]), 400, 500.0)
    assert w_finer.max() > w400.max()      # climbing toward pi^2 under refinement
    below = np.sort(w400[w400 <= pi2 * 0.25])
    assert np.max(np.diff(below)) <= 0.05 * pi2


def _pair(n_half, v=0.5):
    return build_model(ModelSpec("lattice1d", n_half, ((0, v),)))


def test_l_operators_zero_potential():
    rec = build_l_operators(build_model(ModelSpec("lattice1d", 60)), 0.0, 64, 20.0)
    assert rec["residual_b16"] <= 1e-10


def test_b16_residual_stated_scale():
    # stated expectation at (N=1000, n=200, T=50); the truncation tail at this
    # T dominates the quadrature error, recorded honestly
    rec = build_l_operators(_pair(1000), 0.0, 200, 50.0)
    assert rec["residual_b16"] <= 1e-3


def test_b16_residual_halves_when_quadrature_doubles():
    # adequate time truncation: quadrature error dominates and halves with n
    r200 = build_l_operators(_pair(1000), 0.0, 200, 2000.0)["residual_b16"]
    r400 = build_l_operators(_pair(1000), 0.0, 400, 2000.0)["residual_b16"]
    assert r200 <= 1e-3
    assert r400 <= 0.5 * r200


def test_b16_residual_small_model_converges():
    r = build_l_operators(_pair(60), 0.0, 200, 200.0)["residual_b16"]
    assert r <= 1e-3


def test_l0_gram_deflation_fingerprint():
    # L0^T L0 differs from F0'(0) * Gamma by a near-finite-rank correction
    pair = _pair(1000)
    f0p = boundary_value(pair, 0.0).f0p[0, 0]
    rec = build_l_operators(pair, 0.0, 200, 50.0)
    diff = rec["L0"].T @ rec["L0"] - f0p * gamma_matrix(200, 50.0).matrix
    sv = np.linalg.svd(diff, compute_uv=False)
    assert sv[20] <= 0.1 * sv[0]


def test_kernel_time_decay_after_density_subtraction():
    # t * K(t) approaches the spectral density at the window edge; the
    # deviation over the last decade shrinks as the truncation grows
    devs = {}
    for n_half in (1000, 4000):
        pair = _pair(n_half)
        f0p = boundary_value(pair, 0.0).f0p[0, 0]
        dec = eig(pair, "free")
        sel = (dec.eigenvalues > 0) & (dec.eigenvalues < 1)
        c0 = (pair.g @ dec.eigenvectors[:, sel]).ravel()
        mu = dec.eigenvalues[sel]
        nodes, _ = graded_grid(200, 30.0)
        last = nodes > 3.0
        kt = np.array([np.sum(np.exp(-t * mu) * c0 ** 2) for t in nodes[last]])
        devs[n_half] = np.max(np.abs(kt * nodes[last] - f0p))
    assert devs[4000] <= 0.05 * 0.07957747154594769
    assert devs[4000] < devs[1000]


def test_leading_singvals_dense_vs_iterative():
    # the dense SVD serves every size, above 600 (where ARPACK once served) and below
    rng = np.random.default_rng(5)
    for shape in ((700, 650), (700, 500)):
        m = rng.standard_normal(shape)
        assert leading_singvals(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-8)
    assert leading_singvals(np.zeros((0, 3))) == 0.0


# reference formulas: the Nystrom matrix pair by pair and L0, L node by node

def _bound_norm_loop(kernel, n, t_max):
    nodes, weights = graded_grid(n, t_max)
    root = np.sqrt(weights)
    big = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            big[i, j] = big[j, i] = root[i] * root[j] * kernel(nodes[i] + nodes[j])
    return leading_singvals(big)


@pytest.mark.parametrize("n, t_max", [(120, 50.0), (200, 50.0), (404, 731.5)])
def test_bound_check_norm_equals_the_pair_loop(n, t_max):
    for kernel in (lambda t: -np.expm1(-t) / t, lambda t: np.exp(-t)):
        assert hankel_bound_check(kernel, 1.0, n, t_max)["norm"] == \
            _bound_norm_loop(kernel, n, t_max)


def test_gamma_matrix_is_symmetric_and_matches_the_symmetrised_formula():
    for n, t_max in ((200, 50.0), (404, 731.5)):
        disc = gamma_matrix(n, t_max)
        assert np.array_equal(disc.matrix, disc.matrix.T)
        root = np.sqrt(disc.weights)
        old = gamma_kernel(disc.nodes[:, None] + disc.nodes[None, :])
        old = root[:, None] * old * root[None, :]
        old = (old + old.T) / 2
        assert np.max(np.abs(disc.matrix - old)) <= 1e-15
        check = hankel_bound_check(gamma_kernel, 1.0, n, t_max)
        assert np.array_equal(check["discretization"].matrix, disc.matrix)


def _l_operators_loop(pair, lam, n, t_max):
    nodes, weights = graded_grid(n, t_max)
    dec0 = eig(pair, "free", lam, lam + 1.0)
    dec1 = eig(pair, "full", lam - 1.0, lam)
    v0, v1 = dec0.eigenvectors, dec1.eigenvectors
    mu0, mu1 = dec0.eigenvalues - lam, dec1.eigenvalues - lam
    k = pair.k_dim
    c0, c1 = v0.T @ pair.g.T, v1.T @ pair.g.T
    l0 = np.empty((pair.spec.dim, n * k))
    l1 = np.empty((pair.spec.dim, n * k))
    for i, (t, r) in enumerate(zip(nodes, np.sqrt(weights))):
        l0[:, i * k:(i + 1) * k] = r * (v0 @ (np.exp(-t * mu0)[:, None] * c0))
        l1[:, i * k:(i + 1) * k] = r * (v1 @ (np.exp(t * mu1)[:, None] * c1))
    return l0, l1


@pytest.mark.parametrize("potential, lam, n, t_max, atol", [
    (((0, 0.6), (1, -0.4)), 0.1, 200, 50.0, 0.0),
    # one wide product over all nodes rounds differently from the per-node blocks here
    (((0, -0.730385), (2, 0.869979)), -0.27838518821, 202, 196.930959, 0.0),
    (((0, 0.5),), -0.2, 200, 50.0, 1e-15),
])
def test_l_operators_match_the_node_loop(potential, lam, n, t_max, atol):
    pair = build_model(ModelSpec("lattice1d", 500, potential))
    rec = build_l_operators(pair, lam, n, t_max)
    l0, l1 = _l_operators_loop(pair, lam, n, t_max)
    assert np.max(np.abs(rec["L0"] - l0)) <= atol
    assert np.max(np.abs(rec["L"] - l1)) <= atol


@pytest.mark.parametrize("potential, lam, n, t_max", [
    (((0, 0.6), (1, -0.4)), 0.1, 200, 50.0),
    (((0, -0.730385), (2, 0.869979)), -0.27838518821, 202, 196.930959),
    (((0, 0.5),), -0.2, 200, 50.0),
    (((0, 0.5),), 0.0, 400, 50.0),
])
def test_b16_residual_equals_the_whole_space_formula(potential, lam, n, t_max):
    # the k1 x k0 factor v1^T v0 + c1 J c0^T has the norm of v1 v1^T v0 v0^T + L J L0^T
    pair = build_model(ModelSpec("lattice1d", 500, potential))
    rec = build_l_operators(pair, lam, n, t_max)
    v0 = eig(pair, "free", lam, lam + 1.0).eigenvectors
    v1 = eig(pair, "full", lam - 1.0, lam).eigenvectors
    l1 = rec["L"]
    l1j = (l1.reshape(l1.shape[0], n, pair.k_dim) @ pair.j).reshape(l1.shape)
    whole = leading_singvals(v1 @ (v1.T @ v0) @ v0.T + l1j @ rec["L0"].T)
    assert rec["residual_b16"] == pytest.approx(whole, rel=1e-13, abs=0)
