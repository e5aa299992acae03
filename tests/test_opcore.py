"""Model construction, factorization, spectral calculus."""

import json
from dataclasses import replace

import scipy.linalg

import numpy as np
import pytest

from specdiff import opcore
from specdiff import tolerances as tol
from specdiff.alpha import AlphaError, alpha_proj_limit, d_spectrum_ladder
from specdiff.hankelmodel import build_l_operators
from specdiff.harness import ExperimentConfig, run, validate
from specdiff.opcore import (ModelError, ModelSpec, OperatorPair, Rung, _floor_singvals,
                             apply_function, build_model, count_below, eig, eigendecompose,
                             even_sector, hopping_eigenpairs, ladder_rung, one_site_at_origin,
                             select_spectrum, spectral_projection)
from specdiff.pcfunc import PiecewiseFn, SymbolError, predicted_ess_spectrum, symbol_difference
from specdiff.resolvent import ResolventError, boundary_value, stone_consistency, t0_of_z
from specdiff.scatter1d import ScatteringError, smatrix_transfer


def test_free_model_is_bare_hopping():
    pair = build_model(ModelSpec("lattice1d", 2))
    assert pair.dense("free").shape == (5, 5)
    expected = np.zeros((5, 5))
    idx = np.arange(4)
    expected[idx, idx + 1] = expected[idx + 1, idx] = 1.0
    assert np.array_equal(pair.dense("free"), expected)
    assert np.array_equal(pair.v, np.zeros(5))
    assert pair.k_dim == 0


def test_rank_one_factorization():
    pair = build_model(ModelSpec("lattice1d", 2, ((0, 0.5),)))
    assert np.array_equal(pair.v, [0, 0, 0.5, 0, 0])
    assert pair.g.shape == (1, 5)
    assert pair.g[0, 2] == pytest.approx(np.sqrt(0.5), abs=0)
    assert np.array_equal(pair.j, [[1.0]])
    assert pair.check_factorization() <= 1e-12


def test_random_traceclass_factorization_and_summability():
    pair = build_model(ModelSpec("random_traceclass", 50, decay_rate=2.0, seed=7))
    assert pair.check_factorization() <= 1e-12
    s = np.linalg.svd(pair.v, compute_uv=False)
    # partial sums Cauchy: the tail of sorted singular values is tiny
    assert np.sum(np.sort(s)[:20]) <= np.sum(s) * 1e-2
    i = np.arange(1, 102)
    assert np.max(np.abs(np.sort(s)[::-1] - i[: len(s)] ** -2.0)) <= 1e-10


def test_determinism_bit_identical():
    spec = ModelSpec("random_traceclass", 30, decay_rate=1.5, seed=11)
    a, b = build_model(spec), build_model(spec)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.j, b.j)


def test_tridiagonal_pair_stores_no_square_array(monkeypatch):
    pair = build_model(ModelSpec("lattice1d", 4000, ((0, 0.5),)))
    assert sum(getattr(pair, f).nbytes for f in ("h0", "v", "g", "j")) < 2 ** 20
    # nor does any route of a tridiagonal pair form one

    def refuse(self, which):
        raise AssertionError(f"dense {which} formed for a tridiagonal pair")

    monkeypatch.setattr(OperatorPair, "dense", refuse)
    spec = ModelSpec("lattice1d", 30, ((0, 1.0), (2, -0.5)))
    pair = build_model(spec)
    assert eig(pair, "full").eigenvalues.size == 61
    assert eig(pair, "free", -0.5, 0.5).eigenvalues.size > 0
    assert t0_of_z(pair, 0.3 + 0.5j, "truncated").shape == (2, 2)
    assert build_l_operators(pair, 0.2, 16, 20.0)["L0"].shape == (61, 32)
    assert len(d_spectrum_ladder(spec, np.array([-0.5, 0.3]), (20, 30, 40))) == 2
    assert symbol_difference(pair, PiecewiseFn(jumps=((0.3, 0.0, 1.0),))).shape == (61, 61)


def test_unknown_operator_rejected_on_both_routes():
    for spec in (ModelSpec("lattice1d", 3, ((0, 1.0),)),
                 ModelSpec("random_traceclass", 3, decay_rate=1.0)):
        pair = build_model(spec)
        for call in (lambda: eig(pair, "H"), lambda: pair.dense("H")):
            with pytest.raises(ModelError, match="unknown operator"):
                call()


def test_j_squares_to_identity():
    pair = build_model(ModelSpec("random_traceclass", 20, decay_rate=1.0, seed=3))
    assert np.linalg.norm(pair.j @ pair.j - np.eye(pair.j.shape[0]), 2) <= 1e-10


def test_modelspec_validation_errors():
    with pytest.raises(ModelError):
        ModelSpec("continuum", 5)
    with pytest.raises(ModelError):
        ModelSpec("lattice1d", 0)
    with pytest.raises(ModelError):
        ModelSpec("lattice1d", 2, ((3, 1.0),))
    with pytest.raises(ModelError):
        ModelSpec("jacobi", 4, ((-1, 1.0),))
    with pytest.raises(ModelError):
        ModelSpec("lattice1d", 2, ((0, 1.0), (0, 2.0)))
    with pytest.raises(ModelError):
        ModelSpec("random_traceclass", 5)


def test_modelspec_json_round_trip():
    spec = ModelSpec("lattice1d", 7, ((-1, 0.25), (2, -1.0)), seed=4)
    assert ModelSpec.from_json(spec.to_json()) == spec


def test_eigendecompose_identity_and_diag():
    dec = eigendecompose(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1, 1, 1])
    dec = eigendecompose(np.diag([-1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0])
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ModelError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_free_lattice_eigenvalues_closed_form():
    pair = build_model(ModelSpec("lattice1d", 2))
    dec = eigendecompose(pair.dense("free"))
    expected = 2.0 * np.cos(np.arange(5, 0, -1) * np.pi / 6.0)
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)
    tri = eig(pair, "free")
    assert np.allclose(tri.eigenvalues, expected, atol=1e-12)


@pytest.mark.parametrize("spec", [
    ModelSpec("lattice1d", 60), ModelSpec("lattice1d", 61),
    ModelSpec("jacobi", 80, ((0, 0.5),)),
    ModelSpec("random_traceclass", 40, decay_rate=2.0, seed=3),
])
def test_closed_form_free_eigenpairs_match_the_dense_oracle(spec):
    pair = build_model(spec)
    got, ref = eig(pair, "free"), eigendecompose(pair.dense("free"))
    scale = np.max(np.abs(ref.eigenvalues))
    assert np.max(np.abs(got.eigenvalues - ref.eigenvalues)) <= 8 * np.finfo(float).eps * scale
    assert np.all(np.diff(got.eigenvalues) > 0)
    vecs = got.eigenvectors
    assert vecs.flags.f_contiguous
    assert np.linalg.norm(vecs.T @ vecs - np.eye(spec.dim), 2) <= 1e-13
    for lam in (-1.0, 0.0, 0.3, 0.7):
        assert np.linalg.norm(spectral_projection(got, lam) - spectral_projection(ref, lam),
                              2) <= 1e-13, lam


def _indicator(lam, closed="neither"):
    # the step 1 below lam, 0 above it, as a map from a whole spectrum to its values (Rung.cloud):
    # an eigenvalue on lam takes 0 (closed "neither", select_spectrum) or, as a symbol's left
    # limit, 1 (closed "right", PiecewiseFn.on_spectrum)
    if closed == "right":
        return PiecewiseFn(jumps=((lam, 1.0, 0.0),)).on_spectrum
    return lambda w: select_spectrum(w, hi=lam).astype(float)


def _dense_difference_spectrum(pair, lam, closed, decs=None):
    # the oracle: dense decompositions, the n x n D, and its eigvalsh
    decs = decs or [eigendecompose(pair.dense(which)) for which in ("free", "full")]
    b0, b1 = (d.eigenvectors[:, :int(_indicator(lam, closed)(d.eigenvalues).sum())]
              for d in decs)
    return np.linalg.eigvalsh(b1 @ b1.T - b0 @ b0.T)


DIFFERENCE_CASES = [
    (ModelSpec("lattice1d", 100, ((0, 1.0),)), 0.3, "neither"),        # one site
    (ModelSpec("lattice1d", 90, ((0, 0.5), (3, -0.7))), 0.7, "neither"),   # two sites
    (ModelSpec("lattice1d", 80, ((0, -2.0),)), 0.3, "neither"),        # bound state below -2
    (ModelSpec("lattice1d", 80, ((0, -2.0),)), -1.0, "right"),
    (ModelSpec("lattice1d", 100, ((0, 1.0),)), 0.0, "neither"),        # 0 in H0, even N
    (ModelSpec("lattice1d", 101, ((0, 1.0),)), 0.0, "right"),          # 0 in H0 and H, odd N
    (ModelSpec("lattice1d", 101, ((0, 1.0),)), 0.0, "neither"),
    (ModelSpec("lattice1d", 100, ((0, 0.5),)), -3.0, "neither"),       # below both spectra
    (ModelSpec("jacobi", 150, ((0, 1.5), (2, 0.5))), -0.4, "neither"),
    (ModelSpec("random_traceclass", 60, decay_rate=2.0, seed=3), 0.3, "neither"),
]


@pytest.mark.parametrize("spec, lam, closed", DIFFERENCE_CASES)
def test_difference_spectrum_matches_the_dense_projection_difference(spec, lam, closed):
    pair = build_model(spec)
    got = ladder_rung(pair).cloud(_indicator(lam, closed))
    ref = _dense_difference_spectrum(pair, lam, closed)
    assert got.shape == ref.shape == (spec.dim,)
    assert np.max(np.abs(got - ref)) <= 1e-12
    for one in (1.0, -1.0):
        assert np.sum(np.abs(got - one) <= 1e-8) == np.sum(np.abs(ref - one) <= 1e-8)
    if lam == -3.0:
        assert not got.any()


@pytest.mark.parametrize("spec, lam, closed", [
    case for case in DIFFERENCE_CASES if one_site_at_origin(build_model(case[0]))])
def test_even_sector_cloud_matches_the_dense_oracle(spec, lam, closed):
    pair = build_model(spec)
    sec = ladder_rung(pair)
    assert isinstance(sec, Rung)
    assert sec.free.size == sec.full.size == spec.n_half + 1
    got = sec.cloud(_indicator(lam, closed))
    ref = _dense_difference_spectrum(pair, lam, closed)
    assert got.shape == ref.shape == (spec.dim,)
    assert np.max(np.abs(got - ref)) <= 1e-12
    for one in (1.0, -1.0):
        assert np.sum(np.abs(got - one) <= 1e-8) == np.sum(np.abs(ref - one) <= 1e-8)
    if lam == -3.0:
        assert not got.any()
    # the sector's eigenvalues are H0's and H's whole spectra less the odd modes, which they share
    free, full = eig(pair, "free").eigenvalues, eig(pair, "full").eigenvalues
    odd = np.setdiff1d(np.arange(spec.dim), np.arange(0, spec.dim, 2))
    assert np.array_equal(sec.free, free[::2])
    assert np.allclose(np.sort(np.concatenate([sec.full, free[odd]])), full, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", [
    ModelSpec("lattice1d", 1000, ((0, 1.0),)),                 # one site: the even sector
    ModelSpec("lattice1d", 500, ((0, 0.96), (1, 0.58))),       # two sites: the eigenvector route
])
def test_cloud_kernel_route_matches_the_dense_oracle(spec):
    # cross blocks past the dense threshold take the certified kernel: exact to tol.CLOUD_FLOOR
    pair = build_model(spec)
    rung = ladder_rung(pair)
    decs = [eigendecompose(pair.dense(which)) for which in ("free", "full")]
    for lam in (-0.9, 0.0, 0.7):
        k0, k1 = count_below(rung.free, lam), count_below(rung.full, lam)
        assert min(rung.overlap[k0:, :k1].shape + rung.overlap[:k0, k1:].shape) > 64
        got = rung.cloud(_indicator(lam))
        ref = _dense_difference_spectrum(pair, lam, "neither", decs)
        assert np.max(np.abs(got - ref)) <= tol.CLOUD_FLOOR + 1e-14, lam
        for one in (1.0, -1.0):
            assert np.sum(np.abs(got - one) <= 1e-8) == np.sum(np.abs(ref - one) <= 1e-8)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _svd_shapes(monkeypatch):
    real, shapes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: shapes.append(a.shape) or real(a, *args, **kw))
    return shapes


def test_cloud_kernel_is_exact_to_the_floor(monkeypatch):
    # geometric singular values 0.6^i down to a tail at 1e-15: a 32-column basis misses
    # values above the floor, the grown 64-column one does not
    rng = np.random.default_rng(3)
    s = np.maximum(0.6 ** np.arange(300), 1e-15)
    a = (_orthogonal(rng, 400)[:, :300] * s) @ _orthogonal(rng, 300).T
    exact = np.linalg.svd(a, compute_uv=False)
    shapes = _svd_shapes(monkeypatch)
    got = _floor_singvals(a)
    assert shapes == [(64, 300)]
    assert got.shape == exact.shape and np.all(np.diff(got) <= 0)
    assert np.max(np.abs(got - exact)) <= tol.CLOUD_FLOOR
    assert np.max(np.abs(got - s)) <= tol.CLOUD_FLOOR


def test_cloud_kernel_gives_the_dense_bits_on_small_and_full_rank_blocks(monkeypatch):
    rng = np.random.default_rng(4)
    small = rng.standard_normal((64, 500)) * 0.3 ** np.arange(500)   # shorter side 64: dense
    full = rng.standard_normal((300, 200))                           # full rank: basis outgrows
    for a in (small, full, small.T):
        assert np.array_equal(_floor_singvals(a), np.linalg.svd(a, compute_uv=False))
    # one row more and the low-rank block takes the kernel
    shapes = _svd_shapes(monkeypatch)
    _floor_singvals(np.vstack([small, small[:1]]))
    assert shapes == [(32, 500)]


def test_cloud_kernel_is_deterministic_and_exact_on_empty_and_zero_blocks():
    w = ladder_rung(build_model(ModelSpec("lattice1d", 1000, ((0, 1.0),)))).overlap
    k = w.shape[0] // 2
    first = _floor_singvals(w[k:, :k])
    assert np.array_equal(first, _floor_singvals(w[k:, :k]))
    for shape in ((0, 0), (0, 5), (5, 0)):
        assert _floor_singvals(np.zeros(shape)).shape == (0,)
    eye = np.eye(401)                                    # the W of V = 0
    assert np.array_equal(_floor_singvals(eye[200:, :200]), np.zeros(200))
    assert np.array_equal(_floor_singvals(eye[:200, 200:]), np.zeros(200))


SYMBOLS = (
    PiecewiseFn(jumps=((-0.5, 0.0, 1.0), (0.0, 0.0, 0.5))),            # two jumps, one on 0
    PiecewiseFn(jumps=((0.3, 0.0, 1.0),), background="gaussian_bump",
                background_params=(0.5, 0.2, 0.8)),                    # a jump and a bump
    PiecewiseFn(background="arctan_step_smoothed", background_params=(1.0, 0.0, 0.2)),
)


# the phi workload's two-site symbol: its M has about 130 singular values above the floor at
# N = 1000, so it must take the certified low-rank path, not the dense fallback
LOW_RANK_CASE = (ModelSpec("lattice1d", 1000, ((0, -0.81), (1, 0.45))),
                 (PiecewiseFn(jumps=((-0.5, 0.0, 1.0), (0.5, 0.0, 0.7)), background="gaussian_bump",
                              background_params=(0.6, 0.1, 0.5)),))
SYMBOL_CASES = [(spec, SYMBOLS) for spec in dict.fromkeys(case[0] for case in DIFFERENCE_CASES)]
SYMBOL_CASES.append(LOW_RANK_CASE)
SYMBOL_CASES.append((ModelSpec("lattice1d", 400), SYMBOLS))       # V = 0 past 600 rows: M = 0
SYMBOL_CASES.append((ModelSpec("lattice1d", 700, ((0, 1.0),)), SYMBOLS))   # sector kernel, 0 in H0


@pytest.mark.parametrize("spec, symbols", SYMBOL_CASES,
                         ids=[f"spec{i}" for i in range(len(SYMBOL_CASES))])
def test_rung_difference_matches_the_dense_symbol_difference(spec, symbols, monkeypatch):
    # phi(H) - phi(H0) from the rung's certified kernel, zeros for the rows past W's size, has
    # the spectrum of the dense site-basis oracle
    real, widths = opcore._floor_basis, []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        widths.append(None if out is None else out[0].shape[1])
        return out

    monkeypatch.setattr(opcore, "_floor_basis", recording)
    pair = build_model(spec)
    rung = ladder_rung(pair)
    for phi in symbols:
        got = rung.cloud(phi.on_spectrum)
        ref = np.linalg.eigvalsh(symbol_difference(pair, phi))
        assert got.shape == ref.shape == (spec.dim,)
        assert np.max(np.abs(got - ref)) <= 1e-12, phi
    if spec is LOW_RANK_CASE[0]:                # one accepted basis, far narrower than the rung
        assert len(widths) == 1 and widths[0] is not None and 2 * widths[0] < spec.dim


def test_cloud_chooses_its_kernel_from_the_symbol_values(monkeypatch):
    # the values on both spectra, not the symbol's form, choose the kernel: a step with a
    # zero-amplitude bump takes the principal angles and gives the plain step's bits, a window
    # indicator (two values, but not one step) takes the basis of M
    real, calls = opcore._floor_singvals, []
    monkeypatch.setattr(opcore, "_floor_singvals",
                        lambda a: calls.append(a.shape) or real(a))
    pair = build_model(ModelSpec("lattice1d", 400, ((0, 0.5), (3, -0.7))))
    rung = ladder_rung(pair)
    assert rung.overlap.shape == (801, 801)
    step = PiecewiseFn(jumps=((0.3, 0.0, 1.0),))
    bumped = PiecewiseFn(jumps=step.jumps, background="gaussian_bump",
                         background_params=(0.0, 0.2, 0.8))
    window = PiecewiseFn(jumps=((-0.3, 0.0, 1.0), (0.3, 0.0, -1.0)))
    plain = rung.cloud(step.on_spectrum)
    del calls[:]
    got = rung.cloud(bumped.on_spectrum)
    assert len(calls) == 2 and np.array_equal(got, plain)
    del calls[:]
    clouds = [plain, got, rung.cloud(window.on_spectrum)]
    assert calls == []
    for phi, cloud in zip((step, bumped, window), clouds):
        ref = np.linalg.eigvalsh(symbol_difference(pair, phi))
        assert np.max(np.abs(cloud - ref)) <= 1e-12, phi


@pytest.mark.parametrize("spec", [
    ModelSpec("lattice1d", 250, ((0, 0.96), (1, 0.58))),
    ModelSpec("jacobi", 500, ((0, 1.5), (2, 0.5))),
    ModelSpec("random_traceclass", 60, decay_rate=2.0, seed=3),
])
def test_sine_transform_overlap_matches_the_eigenvector_product(spec):
    # the whole route takes W = Phi^T Psi and G Phi from sine transforms, never forming Phi;
    # the oracle forms Phi in closed form and multiplies
    pair = build_model(spec)
    rung = ladder_rung(pair)
    free, psi = hopping_eigenpairs(spec.dim), eig(pair, "full").eigenvectors
    assert np.array_equal(rung.free, free.eigenvalues)
    assert np.max(np.abs(rung.overlap - free.eigenvectors.T @ psi)) <= 1e-13
    assert np.max(np.abs(rung.g_free - pair.g @ free.eigenvectors)) <= 1e-13
    # V = 0: W is exactly the identity, and G Phi has no rows
    for zero in (ModelSpec("lattice1d", 40), ModelSpec("jacobi", 41)):
        rung = ladder_rung(build_model(zero))
        assert np.array_equal(rung.overlap, np.eye(zero.dim))
        assert rung.full is rung.free and rung.g_free.shape == (0, zero.dim)


def test_even_sector_overlap_is_orthogonal():
    for v in (-2.0, 0.5, 1.0):
        w = even_sector(build_model(ModelSpec("lattice1d", 1000, ((0, v),)))).overlap
        assert np.linalg.norm(w.T @ w - np.eye(1001), 2) <= 1e-11, v


def _counting_solver(monkeypatch):
    real, calls = scipy.linalg.eigh_tridiagonal, []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    return calls


def test_one_site_ladder_solves_each_rung_once_for_eigenvalues_only(monkeypatch):
    calls = _counting_solver(monkeypatch)
    n_list = (20, 40, 80)
    d_spectrum_ladder(ModelSpec("lattice1d", 10, ((0, 1.0),)), np.array([-1.0, 0.0, 0.3]),
                      n_list)
    assert calls == [True] * len(n_list)


@pytest.mark.parametrize("spec", [
    ModelSpec("lattice1d", 10, ((0, 1.0), (2, -0.5))),        # two sites
    ModelSpec("lattice1d", 10, ((1, 1.0),)),                  # one site, off the origin
    ModelSpec("jacobi", 10, ((0, 1.5),)),
    ModelSpec("random_traceclass", 10, decay_rate=2.0, seed=3),
])
def test_other_pairs_keep_the_whole_decompositions(spec, monkeypatch):
    lams, n_list = (-1.0, 0.0, 0.3), (20, 40, 80)
    assert not one_site_at_origin(build_model(spec))
    ests = d_spectrum_ladder(spec, np.array(lams), n_list)
    for i, n in enumerate(n_list):
        pair = build_model(replace(spec, n_half=n))
        for lam, est in zip(lams, ests):
            ref = _dense_difference_spectrum(pair, lam, "neither")
            assert np.max(np.abs(est.eigenvalue_clouds[i] - ref)) <= 1e-12
    calls = _counting_solver(monkeypatch)
    d_spectrum_ladder(spec, np.array(lams), n_list)
    assert calls == ([False] * len(n_list) if spec.kind != "random_traceclass" else [])


def test_difference_spectrum_measures_plus_minus_one_and_zero_potential():
    # an attractive site binds a state below -2: rank E(-inf, 0.3) = rank E0(-inf, 0.3) + 1
    pair = build_model(ModelSpec("lattice1d", 80, ((0, -2.0),)))
    got = ladder_rung(pair).cloud(_indicator(0.3))
    assert np.sum(np.abs(got - 1.0) <= 1e-8) == 1 and np.sum(np.abs(got + 1.0) <= 1e-8) == 0
    # V = 0: H shares H0's decomposition, W is the identity and D is exactly 0
    pair = build_model(ModelSpec("lattice1d", 80))
    dec0, dec1 = eig(pair, "free"), eig(pair, "full")
    assert np.array_equal(dec1.eigenvalues, dec0.eigenvalues)
    assert np.array_equal(dec1.eigenvectors, dec0.eigenvectors)
    rung = ladder_rung(pair)
    assert np.array_equal(rung.overlap, np.eye(161))
    for lam in (-1.0, 0.0, 0.3):
        assert np.array_equal(rung.cloud(_indicator(lam)), np.zeros(161))


def test_orthonormality_and_residual():
    pair = build_model(ModelSpec("lattice1d", 10, ((0, 1.0),)))
    dec = eigendecompose(pair.dense("full"))
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.linalg.norm(gram - np.eye(21), 2) <= 1e-10
    resid = pair.dense("full") @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
    assert np.linalg.norm(resid, 2) <= 1e-12


def test_spectral_projection_extremes_and_rank():
    pair = build_model(ModelSpec("lattice1d", 2))
    dec = eigendecompose(pair.dense("free"))
    assert np.array_equal(spectral_projection(dec, -10.0), np.zeros((5, 5)))
    assert np.allclose(spectral_projection(dec, 10.0), np.eye(5), atol=1e-12)
    # the middle Dirichlet eigenvalue is exactly 0; whatever sign roundoff
    # gives it, it is not strictly below 0, so the exact-arithmetic rank is 2
    dec = eig(pair, "free")
    p = spectral_projection(dec, 0.0)
    assert np.trace(p) == pytest.approx(2.0, abs=1e-10)
    assert np.linalg.norm(p @ p - p, 2) <= 1e-9
    assert np.linalg.norm(p - p.T, 2) <= 1e-10


def _window(w, lo, hi, closed):
    # the columns of an ascending whole spectrum w in a window with ends lo < hi:
    # (lo, hi) by select_spectrum ("neither"), [lo, hi) from the prefixes below
    # lo and below hi (count_below, "left"), and (lo, hi] from the indicators of
    # (-inf, lo] and (-inf, hi] (PiecewiseFn.on_spectrum, "right")
    if closed == "neither":
        return np.flatnonzero(select_spectrum(w, lo, hi))
    if closed == "left":
        return np.arange(count_below(w, lo), count_below(w, hi))
    at_most = [int(_indicator(x, "right")(w).sum()) for x in (lo, hi)]
    return np.arange(*at_most)


@pytest.mark.parametrize("closed", ["neither", "left", "right"])
def test_eig_window_on_an_exact_eigenvalue_same_on_both_routes(closed):
    # 0 = 2 cos(12 pi / 24) and +-1 = 2 cos(8 pi / 24), 2 cos(16 pi / 24) are
    # exact eigenvalues of the 23-site H0 (and 0 of H, for odd N); windows
    # ending on them select them by their convention alone, on eig's route and
    # on the dense oracle's (eig itself gives the open window)
    pair = build_model(ModelSpec("lattice1d", 11, ((0, 1.0),)))
    windows = ((0.0, 1.0), (-1.0, 0.0))
    calls = [(which, lo, hi) for which in ("free", "full") for lo, hi in windows]
    tri, dense = [], []
    for which, lo, hi in calls:
        for out, dec in ((tri, eig(pair, which)), (dense, eigendecompose(pair.dense(which)))):
            sel = _window(dec.eigenvalues, lo, hi, closed)
            out.append(replace(dec, eigenvalues=dec.eigenvalues[sel],
                               eigenvectors=dec.eigenvectors[:, sel]))
    if closed == "neither":
        for (which, lo, hi), a in zip(calls, tri):
            b = eig(pair, which, lo, hi)
            assert np.array_equal(a.eigenvalues, b.eigenvalues), (which, lo)
            assert np.array_equal(a.eigenvectors, b.eigenvectors), (which, lo)
    for (which, lo, hi), a, b in zip(calls, tri, dense):
        assert a.eigenvalues.size == b.eigenvalues.size, (which, lo, closed)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)
        pa, pb = (d.eigenvectors @ d.eigenvectors.T for d in (a, b))
        assert np.allclose(pa, pb, atol=1e-10)
    # exact selections for H0: three eigenvalues inside each window (k = 9..11
    # and 13..15), plus the endpoint eigenvalue that the convention admits
    admitted = {"neither": (None, None), "left": (0.0, -1.0), "right": (1.0, 0.0)}[closed]
    for dec, end in zip(tri[:2], admitted):
        assert dec.eigenvalues.size == 3 + (end is not None)
        if end is not None:
            assert np.min(np.abs(dec.eigenvalues - end)) <= 1e-14


def test_apply_function_constant_and_indicator():
    pair = build_model(ModelSpec("lattice1d", 5, ((1, 0.7),)))
    dec = eigendecompose(pair.dense("full"))
    assert np.allclose(apply_function(dec, lambda x: np.ones_like(x)),
                       np.eye(11), atol=1e-12)
    lam = 0.3
    ind = apply_function(dec, lambda x: (x < lam).astype(float))
    assert np.allclose(ind, spectral_projection(dec, lam), atol=1e-12)


def test_apply_function_scalar_loop_oracle():
    pair = build_model(ModelSpec("lattice1d", 20))
    dec = eigendecompose(pair.dense("free"))
    phi = lambda x: np.arctan(5.0 * x) / np.pi + 0.5
    got = apply_function(dec, phi)
    oracle = np.zeros((41, 41))
    for lam_j, v_j in zip(dec.eigenvalues, dec.eigenvectors.T):
        oracle += float(phi(np.array([lam_j]))[0]) * np.outer(v_j, v_j)
    assert np.linalg.norm(got - oracle, 2) <= 1e-12


def test_kernel_equality_probe():
    # invertible truncation: both kernels trivial
    pair = build_model(ModelSpec("jacobi", 1, ((0, 0.5),)))
    for m in (pair.dense("free"), pair.dense("full")):
        w = np.linalg.eigvalsh(m)
        assert np.min(np.abs(w)) > 1e-8
    # planted kernel: middle-site perturbation vanishes on the zero mode
    pair = build_model(ModelSpec("jacobi", 2, ((1, 0.8),)))
    w0 = np.linalg.eigvalsh(pair.dense("free"))
    w1 = np.linalg.eigvalsh(pair.dense("full"))
    assert np.sum(np.abs(w0) <= 1e-8) == 1
    assert np.sum(np.abs(w1) <= 1e-8) == 1


def test_every_site_applies_one_band_rule(tmp_path):
    # |lambda| < 2 - BAND_MARGIN = 1.9 is in band, at every site and on both sides of 1.9
    pair = build_model(ModelSpec("lattice1d", 50, ((0, 0.5),)))
    sites = {
        "alpha_proj_limit": lambda lam: alpha_proj_limit(pair, lam, (1.0,)),
        "smatrix_transfer": lambda lam: smatrix_transfer(pair.spec.potential, lam),
        "predicted_ess_spectrum": lambda lam: predicted_ess_spectrum(
            PiecewiseFn(jumps=((lam, 0.0, 1.0),)), lambda x: 0.5),
        "t0_of_z": lambda lam: t0_of_z(pair, lam, mode="infinite_lattice"),
        "boundary_value": lambda lam: boundary_value(pair, lam),
        "stone_consistency": lambda lam: stone_consistency(pair, min(lam, 0.0), max(lam, 0.0), 16),
    }

    def accepts(site, lam):
        try:
            site(lam)
        except (AlphaError, ScatteringError, SymbolError, ResolventError):
            return False
        return True

    edge = (np.nextafter(1.9, 0.0), 1.9, np.nextafter(1.9, 2.0))
    lams = [float(s * x) for s in (-1.0, 1.0) for x in edge]
    for lam in lams:
        verdicts = {name: accepts(site, lam) for name, site in sites.items()}
        assert set(verdicts.values()) == {abs(lam) < 1.9}, (lam, verdicts)
    rejected = [lam for lam in lams if abs(lam) >= 1.9]
    doc = {"kind": "alpha_sweep", "model": json.loads(pair.spec.to_json()),
           "lambda_grid": lams, "output_dir": str(tmp_path / "out")}
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    assert validate(cfg) == [f"lambda={lam} within band_margin of the spectral edge"
                             for lam in rejected]
    errors = run(cfg).errors
    assert [(e["lambda"], e["type"]) for e in errors] == [(lam, "ResolventError") for lam in rejected]
