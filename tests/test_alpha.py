"""Three alpha routes, truncation ladders of the projection difference, Fredholm."""

import numpy as np
import pytest
import scipy.linalg

from specdiff.alpha import (AlphaError, AlphaEstimate, _b4_residual_norm, alpha_derivative,
                            alpha_proj_limit, alpha_smatrix, d_spectrum_ladder,
                            fredholm_check, stilde_matrix, transient_filter)
from specdiff.opcore import ModelSpec, build_model, count_below, eig, ladder_rung, select_spectrum
from specdiff.resolvent import boundary_value


def _bv(v=0.5, lam=0.0, n=50, sites=(0,)):
    pair = build_model(ModelSpec("lattice1d", n, tuple((s, v) for s in sites)))
    return pair, boundary_value(pair, lam)


def delta_alpha(v):
    """Exact alpha at the band center for a single-site potential.

    The sandwiched free boundary value there is i*v/2, so the jump amplitude
    reduces to (v/2)/sqrt(1 + v^2/4)."""
    return (v / 2.0) / np.sqrt(1.0 + v * v / 4.0)


def test_estimate_guards():
    with pytest.raises(AlphaError):
        AlphaEstimate(lam=0.0, value=-1e-3, route="derivative")
    with pytest.raises(AlphaError):
        AlphaEstimate(lam=0.0, value=1.1, route="derivative")


def test_trivial_zero_potential():
    pair, bv = _bv(v=0.0, n=200, sites=())
    assert alpha_derivative(bv, pair.j).value == 0.0
    assert alpha_smatrix(bv, pair.j).value == 0.0
    est = alpha_proj_limit(pair, 0.0, (0.8, 0.4))
    assert est.value == 0.0
    assert all(val == 0.0 for _, val in est.diagnostics)


def test_derivative_matches_exact_value():
    for v in (0.25, 0.5, 1.0):
        pair, bv = _bv(v=v)
        est = alpha_derivative(bv, pair.j)
        assert est.value == pytest.approx(delta_alpha(v), abs=1e-12)


def test_route_identity_derivative_vs_smatrix():
    for v, lam in ((0.5, 0.0), (1.0, 0.7), (0.25, -1.0)):
        pair, bv = _bv(v=v, lam=lam)
        a1 = alpha_derivative(bv, pair.j).value
        a2 = alpha_smatrix(bv, pair.j).value
        assert abs(a1 - a2) <= 1e-8


def test_stilde_unitarity():
    pair, bv = _bv(v=0.5)
    st = stilde_matrix(bv, pair.j)
    assert np.linalg.norm(st.conj().T @ st - np.eye(1), 2) <= 1e-10


def test_alpha_cap_respected_near_resonance():
    # two neighboring sites resonate at v=2: alpha sweeps up to exactly 1
    for v in (1.9, 1.999, 2.0, 2.001):
        pair, bv = _bv(v=v, sites=(0, 1), n=30)
        est = alpha_derivative(bv, pair.j)
        assert est.value <= 1.0 + 1e-6


def test_proj_limit_schedule_guard():
    pair = build_model(ModelSpec("lattice1d", 100, ((0, 0.5),)))
    with pytest.raises(AlphaError):
        alpha_proj_limit(pair, 0.0, (0.1,))
    with pytest.raises(AlphaError):
        alpha_proj_limit(pair, 1.95, (0.8,))


def test_proj_limit_truncation_stability():
    vals = {}
    for n in (1000, 2000):
        pair = build_model(ModelSpec("lattice1d", n, ((0, 0.5),)))
        est = alpha_proj_limit(pair, 0.0, (0.8, 0.4))
        vals[n] = dict(est.diagnostics)
    for eps in (0.8, 0.4):
        assert abs(vals[1000][eps] - vals[2000][eps]) <= 1e-3


def test_proj_limit_monotone_refinement():
    pair = build_model(ModelSpec("lattice1d", 2000, ((0, 0.5),)))
    est = alpha_proj_limit(pair, 0.0, (0.8, 0.4, 0.2, 0.1))
    vals = [v for _, v in est.diagnostics]
    diffs = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    assert all(diffs[i + 1] <= diffs[i] for i in range(len(diffs) - 1))


def test_proj_limit_solves_each_operator_once(monkeypatch):
    pair = build_model(ModelSpec("lattice1d", 500, ((0, 0.5), (1, -0.3))))
    lam, schedule = 0.2, (0.8, 0.4, 0.2, 0.1)
    # the per-eps reference: each window cut from a whole solve, then weighted by G
    decs = [eig(pair, which) for which in ("free", "full")]
    ref = []
    for e in schedule:
        b0, b1 = (pair.g @ d.eigenvectors[:, select_spectrum(d.eigenvalues, lam - e, lam + e)]
                  for d in decs)
        ref.append((np.pi / (2.0 * e)) * np.linalg.norm(b0.T @ pair.j @ b1, 2))
    real = scipy.linalg.eigh_tridiagonal
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    est = alpha_proj_limit(pair, lam, schedule)
    assert len(calls) == 1                          # one solve of H; H0 in closed form
    assert [e for e, _ in est.diagnostics] == list(schedule)
    assert np.allclose([v for _, v in est.diagnostics], ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("v", [-2.0, 0.5, 1.0])
def test_proj_limit_one_site_takes_the_even_sector(v, monkeypatch):
    # G sees only site 0: the sector's |phi_k(0)| and |z|^T W give the eigenvector route's values
    pair = build_model(ModelSpec("lattice1d", 1000, ((0, v),)))
    lam, schedule = 0.2, (0.8, 0.4, 0.2, 0.1)
    decs = [eig(pair, which) for which in ("free", "full")]
    ref = []
    for e in schedule:
        b0, b1 = (pair.g @ d.eigenvectors[:, select_spectrum(d.eigenvalues, lam - e, lam + e)]
                  for d in decs)
        ref.append((np.pi / (2.0 * e)) * np.linalg.norm(b0.T @ pair.j @ b1, 2))
    real = scipy.linalg.eigh_tridiagonal
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    est = alpha_proj_limit(pair, lam, schedule)
    assert calls == [True]                          # one eigenvalues-only solve of H's sector
    assert np.allclose([v for _, v in est.diagnostics], ref, rtol=0, atol=1e-12)


def test_ladder_trivial_and_guards():
    est = d_spectrum_ladder(ModelSpec("lattice1d", 10), 0.0, (50, 100, 200))
    assert est.alpha_empirical == 0.0
    assert all(np.max(np.abs(c)) <= 1e-12 for c in est.eigenvalue_clouds)
    with pytest.raises(AlphaError):
        d_spectrum_ladder(ModelSpec("lattice1d", 10), 0.0, (50, 100))
    with pytest.raises(AlphaError, match="n_list must be an integer"):
        d_spectrum_ladder(ModelSpec("lattice1d", 10), 0.0, ("20", 30, 40))


def test_ladder_off_spectrum_compact():
    est = d_spectrum_ladder(ModelSpec("lattice1d", 10, ((0, 0.5),)), -3.0,
                            (100, 200, 400))
    counts = [int(np.sum(np.abs(c) > 0.1)) for c in est.eigenvalue_clouds]
    assert counts == [0, 0, 0]


def test_ladder_cloud_statistics():
    est = d_spectrum_ladder(ModelSpec("lattice1d", 10, ((0, 1.0),)), 0.0,
                            (200, 400, 800))
    for c in est.eigenvalue_clouds:
        assert np.min(c) >= -1.0 - 1e-8 and np.max(c) <= 1.0 + 1e-8
    nz = np.sort(est.filtered_cloud[np.abs(est.filtered_cloud) > 1e-6])
    assert nz.size > 0
    assert np.max(np.abs(nz + nz[::-1])) <= 1e-6       # +-mu pairing
    assert all(r <= 1e-9 for r in est.b4_residuals)
    assert est.alpha_empirical <= 1.0 + 1e-8
    assert est.fill_distance >= 0.0


@pytest.mark.parametrize("spec", [
    ModelSpec("lattice1d", 10, ((0, 1.0),)),
    ModelSpec("random_traceclass", 10, decay_rate=2.0, seed=3),
])
def test_ladders_match_one_lambda_ladders_bitwise(spec):
    lams = (-1.0, 0.0, 0.7)
    n_list = (20, 40, 80)
    # one lambda gives one estimate, a 1-D array of lambda a tuple of them
    many = d_spectrum_ladder(spec, np.array(lams), n_list)
    assert type(many) is tuple and len(many) == len(lams)
    for lam, est in zip(lams, many):
        one = d_spectrum_ladder(spec, lam, n_list)
        assert est.lam == one.lam and est.n_list == one.n_list
        assert all(np.array_equal(a, b) for a, b in zip(est.eigenvalue_clouds,
                                                        one.eigenvalue_clouds))
        assert np.array_equal(est.filtered_cloud, one.filtered_cloud)
        assert est.b4_residuals == one.b4_residuals
        assert est.to_json() == one.to_json()
    assert d_spectrum_ladder(spec, np.array([]), n_list) == ()
    with pytest.raises(AlphaError):
        d_spectrum_ladder(spec, np.array(lams), (40, 20, 80))


def test_ladders_solve_each_rung_once(monkeypatch):
    real = scipy.linalg.eigh_tridiagonal
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    spec = ModelSpec("lattice1d", 10, ((0, 1.0),))
    n_list = (20, 40, 80)
    for lams in ((0.3,), (-1.0, 0.0, 0.7, -3.0)):
        calls.clear()
        d_spectrum_ladder(spec, np.array(lams), n_list)
        assert len(calls) == len(n_list)           # one solve of H; H0 in closed form


def _b4_residual_reference(v0n, v1n, iters=60, seed=1234):
    """The D^2 residual as first written: p0(x) formed three times per iteration."""
    n = v0n.shape[0]

    def p0(x):
        return v0n @ (v0n.T @ x)

    def p1(x):
        return v1n @ (v1n.T @ x)

    def resid(x):
        d = lambda y: p1(y) - p0(y)
        t1 = d(d(x))
        t2 = p0(x) - p0(p1(p0(x)))
        xm = x - p0(x)
        t3 = p1(xm) - p0(p1(xm))
        return t1 - t2 - t3

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(iters):
        y = resid(x)
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            return 0.0
        est = nrm
        x = y / nrm
    return float(est)


def _identity_residual_dense(k0, w1):
    # ||D^2 - P (I - Q) P - (I - P) Q (I - P)||_2 with P the prefix mask and Q = w1 w1^T
    n = w1.shape[0]
    p = np.diag((np.arange(n) < k0).astype(float))
    q = w1 @ w1.T
    d = q - p
    eye = np.eye(n)
    return np.linalg.norm(d @ d - p @ (eye - q) @ p - (eye - p) @ q @ (eye - p), 2)


def test_b4_residual_is_the_norm_of_the_d2_identity_residual():
    # the rung-basis blocks I[:, :k0] and W[:, :k1] of a whole-route rung and of a sector rung;
    # the closed form against the dense identity residual and the power iteration, on W[:, :k1]
    # (roundoff) and on W[:, :k1] (I + delta diag(d)) (a defect with one dominant direction)
    for spec in (ModelSpec("lattice1d", 60, ((0, 1.0), (2, -0.5))),
                 ModelSpec("lattice1d", 60, ((0, 1.0),))):
        rung = ladder_rung(build_model(spec))
        n = rung.overlap.shape[0]
        for lam in (-1.0, 0.0, 0.3):
            k0, k1 = count_below(rung.free, lam), count_below(rung.full, lam)
            w1 = rung.overlap[:, :k1]
            values = [_b4_residual_norm(w1), _identity_residual_dense(k0, w1),
                      _b4_residual_reference(np.eye(n, k0), w1)]
            assert max(values) <= 1e-12
            d = np.full(k1, 0.1)
            d[k1 // 2] = 1.0
            bent = w1 * (1.0 + 1e-6 * d)
            value = _b4_residual_norm(bent)
            assert value == pytest.approx(_identity_residual_dense(k0, bent), rel=1e-8)
            assert value == pytest.approx(_b4_residual_reference(np.eye(n, k0), bent), rel=1e-6)
    assert _b4_residual_norm(np.zeros((5, 0))) == 0.0


def test_transient_filter_drops_movers():
    prev = np.array([0.0, 0.2, 0.4])
    cloud = np.array([0.01, 0.21, 0.9])
    kept = transient_filter(cloud, prev)
    assert np.array_equal(kept, [0.01, 0.21])


def test_fredholm_trivial_and_weak():
    pair, bv = _bv(v=0.0, sites=())
    chk = fredholm_check(bv, pair.j)
    assert chk == {"sigma_min_0": 1.0, "sigma_min_1": 1.0, "fredholm": True}
    pair, bv = _bv(v=0.1)
    chk = fredholm_check(bv, pair.j)
    assert chk["fredholm"]
    assert alpha_derivative(bv, pair.j).value < 1.0


def test_fredholm_near_resonance_sweep():
    # two-site pair resonates at v=2: sigma_min collapses there, and the
    # distance of alpha from 1 is controlled by the kernel singular value
    for v in (1.5, 1.9, 1.99, 1.999, 2.0, 2.001, 2.5):
        pair, bv = _bv(v=v, sites=(0, 1), n=30)
        chk = fredholm_check(bv, pair.j)
        a = alpha_derivative(bv, pair.j).value
        assert 1.0 - a <= 10.0 * chk["sigma_min_0"] + 1e-12
        # 1 - alpha shrinks quadratically in the detuning while sigma_min
        # shrinks linearly, so the boolean coincidence with alpha < 1 - 1e-6
        # only holds away from the immediate resonance neighborhood
        if v in (1.5, 2.0, 2.5):
            assert chk["fredholm"] == (a < 1.0 - 1e-6)
