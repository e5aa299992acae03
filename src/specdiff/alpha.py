"""Three routes to alpha(lambda) and truncation-ladder essential spectra of D.

alpha(lambda) = lim (pi/2eps) ||(G E0(lambda-eps,lambda+eps))^T J G E(...)||
is computed (i) from the derivative formula pi ||F0'^(1/2) J F'^(1/2)||,
(ii) from the unitary S-tilde matrix, (iii) from the projection-window limit
on finite truncations.  d_spectrum_ladder tracks the eigenvalue cloud of
D = E(-inf,lambda) - E0(-inf,lambda) along a ladder of truncations, and
d_spectrum_ladders does so for many lambda from one decomposition per rung.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tolerances as tol
from .opcore import (ModelSpec, OperatorPair, build_model, eig, eigendecompose_pair,
                     projection_difference, select_spectrum, spectral_block)
from .resolvent import BoundaryValue


class AlphaError(ValueError):
    """Invalid alpha computation request."""


@dataclass(frozen=True)
class AlphaEstimate:
    lam: float
    value: float
    route: str
    diagnostics: tuple = ()

    def __post_init__(self):
        if self.value < -1e-10:
            raise AlphaError(f"negative alpha {self.value}")
        if self.value > 1.0 + tol.ALPHA_CAP:
            raise AlphaError(f"alpha {self.value} exceeds the unit cap")


@dataclass(frozen=True)
class EssSpectrumEstimate:
    lam: float
    n_list: tuple
    eigenvalue_clouds: tuple          # per-N arrays of eigenvalues of D
    filtered_cloud: np.ndarray        # largest-N cloud after transient filtering
    alpha_empirical: float
    fill_distance: float
    plus_one_count: int
    minus_one_count: int
    b4_residuals: tuple               # per-N D^2 identity residuals

    def to_json(self):
        import json
        return json.dumps({
            "lambda": self.lam,
            "n_list": list(self.n_list),
            "eigenvalue_clouds": [list(map(float, c)) for c in self.eigenvalue_clouds],
            "filtered_cloud": list(map(float, self.filtered_cloud)),
            "alpha_empirical": self.alpha_empirical,
            "fill_distance": self.fill_distance,
            "plus_one_count": self.plus_one_count,
            "minus_one_count": self.minus_one_count,
            "b4_residuals": list(map(float, self.b4_residuals)),
        })


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric square root with negative eigenvalues down to -tol.PSD_FLOOR clamped at zero."""
    if m.size == 0:
        return m.copy()
    w, v = np.linalg.eigh((m + m.T) / 2)
    if w.min() < -tol.PSD_FLOOR:
        raise AlphaError(f"matrix not PSD (min eigenvalue {w.min():.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def alpha_derivative(bv: BoundaryValue, j: np.ndarray) -> AlphaEstimate:
    """alpha(lambda) = pi ||F0'(lambda)^(1/2) J F'(lambda)^(1/2)||."""
    if bv.f0p.size == 0:
        return AlphaEstimate(lam=bv.lam, value=0.0, route="derivative")
    m = psd_sqrt(bv.f0p) @ j @ psd_sqrt(bv.fp)
    value = np.pi * float(np.linalg.norm(m, 2))
    return AlphaEstimate(lam=bv.lam, value=value, route="derivative",
                         diagnostics=(("err_estimate", bv.err_estimate),))


def stilde_matrix(bv: BoundaryValue, j: np.ndarray) -> np.ndarray:
    """Unitary S-tilde(lambda) = I - 2i B0^(1/2) (J - J T J) B0^(1/2)."""
    k = bv.b0.shape[0]
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    root = psd_sqrt(bv.b0)
    return np.eye(k) - 2j * root @ (j - j @ bv.t @ j) @ root


def alpha_smatrix(bv: BoundaryValue, j: np.ndarray) -> AlphaEstimate:
    """alpha(lambda) = ||S-tilde(lambda) - I|| / 2, with unitarity asserted."""
    st = stilde_matrix(bv, j)
    k = st.shape[0]
    if k == 0:
        return AlphaEstimate(lam=bv.lam, value=0.0, route="smatrix_tilde")
    defect = float(np.linalg.norm(st.conj().T @ st - np.eye(k), 2))
    if defect > tol.UNITARITY:
        raise AlphaError(f"S-tilde unitarity defect {defect:.3e}: "
                         "boundary values inconsistent")
    value = 0.5 * float(np.linalg.norm(st - np.eye(k), 2))
    return AlphaEstimate(lam=bv.lam, value=value, route="smatrix_tilde",
                         diagnostics=(("unitarity_defect", defect),))


def alpha_proj_limit(pair: OperatorPair, lam, eps_schedule) -> AlphaEstimate:
    """Window-projection route on a finite truncation.

    For each eps computes (pi/2eps) ||(G E0(win))^T J G E(win)|| over the
    open window win = (lam - eps, lam + eps) and extrapolates linearly in eps
    from the two smallest scheduled values.  H0 and H are each solved once,
    whole (opcore.eig), and every window is cut from that solve by
    opcore.select_spectrum.
    """
    eps_schedule = sorted(set(float(e) for e in eps_schedule), reverse=True)
    if not eps_schedule:
        raise AlphaError("empty eps schedule")
    n = pair.spec.n_half
    for e in eps_schedule:
        if e * n < tol.EPS_N_MIN:
            raise AlphaError(f"eps*N = {e * n:.1f} < {tol.EPS_N_MIN}: window too narrow "
                             "for the truncation")
    if pair.spec.kind == "lattice1d" and abs(lam) > 2.0 - tol.BAND_MARGIN:
        raise AlphaError(f"lambda={lam} within band_margin of the band edge")
    if pair.k_dim == 0:
        diag = [(e, 0.0) for e in eps_schedule]
    else:
        (w0, gv0), (w1, gv1) = (_site_weights(pair, which) for which in ("free", "full"))
        diag = []
        for e in eps_schedule:
            b0 = gv0[:, select_spectrum(w0, lam - e, lam + e)]
            b1 = gv1[:, select_spectrum(w1, lam - e, lam + e)]
            diag.append((e, (np.pi / (2.0 * e)) * float(np.linalg.norm(b0.T @ pair.j @ b1, 2))))
    if len(diag) >= 2:
        (e1, v1), (e2, v2) = diag[-2], diag[-1]
        value = v2 + (v1 - v2) * (0.0 - e2) / (e1 - e2)
    else:
        value = diag[-1][1]
    return AlphaEstimate(lam=float(lam), value=float(max(value, 0.0)),
                         route="proj_limit", diagnostics=tuple(diag))


def _site_weights(pair, which):
    # eigenvalues and G times the eigenvectors, which are dropped on return
    dec = eig(pair, which)
    return dec.eigenvalues, pair.g @ dec.eigenvectors


def _b4_residual_norm(v0n, v1n, iters=60, seed=1234):
    """Power-iteration norm of D^2 - E0- E+ E0- - E0+ E- E0+ (complementary splits).

    With E0+ = I - E0- and E+ = I - E- the identity is algebraically exact,
    so this measures pure roundoff.  All factors act as matvecs through the
    low-rank eigenvector blocks.
    """
    n = v0n.shape[0]

    def p0(x):
        return v0n @ (v0n.T @ x)

    def p1(x):
        return v1n @ (v1n.T @ x)

    def resid(x):
        p0x = p0(x)
        dx = p1(x) - p0x
        t1 = p1(dx) - p0(dx)                # D^2 x
        t2 = p0x - p0(p1(p0x))              # E0- E+ E0- x with E+ = I - E-
        p1xm = p1(x - p0x)
        t3 = p1xm - p0(p1xm)                # E0+ E- E0+ x
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


def nearest_distances(x, points):
    """|x_i - p| for the nearest p of the ascending, non-empty real points, for each x_i."""
    pos = np.searchsorted(points, x)
    lo = np.clip(pos - 1, 0, points.size - 1)
    hi = np.clip(pos, 0, points.size - 1)
    return np.minimum(np.abs(x - points[lo]), np.abs(x - points[hi]))


def transient_filter(cloud, prev_cloud, move_tol=tol.TRANSIENT_MOVE):
    """Drop eigenvalues that moved by more than move_tol since the previous rung."""
    cloud = np.sort(np.asarray(cloud))
    prev = np.sort(np.asarray(prev_cloud))
    if prev.size == 0:
        return cloud[np.abs(cloud) <= move_tol]
    return cloud[nearest_distances(cloud, prev) <= move_tol]


def d_spectrum_ladders(spec: ModelSpec, lams, n_list) -> tuple:
    """d_spectrum_ladder for every lambda in lams, one EssSpectrumEstimate each.

    Each rung is built and decomposed once (opcore.eigendecompose_pair); the
    blocks of every lambda are prefix views of those eigenvectors, first
    trimmed to the prefix below max(lams) in Fortran order, the solver's
    layout, so that they match pcfunc.symbol_difference's views bit for bit.
    """
    return _ladders(spec, lams, n_list)


def d_spectrum_ladder(spec: ModelSpec, lam, n_list) -> EssSpectrumEstimate:
    """Eigenvalue clouds of D = E(-inf,lam) - E0(-inf,lam) along a truncation ladder.

    E(-inf, lam) is strictly below lam in exact arithmetic
    (opcore.select_spectrum): an eigenvalue on lam is left out.
    """
    return _ladders(spec, (lam,), n_list)[0]


def _ladders(spec, lams, n_list):
    # the body of both public names, so that a traced call of either is one span
    lams = tuple(float(lam) for lam in lams)
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 3 or list(n_list) != sorted(n_list):
        raise AlphaError("n_list must be ascending with at least 3 entries")
    clouds = [[] for _ in lams]
    residuals = [[] for _ in lams]
    top = max(lams, default=-np.inf)
    for n in n_list:
        trimmed = [(dec.eigenvalues,
                    spectral_block(dec.eigenvalues, dec.eigenvectors, top).copy(order="F"))
                   for dec in eigendecompose_pair(build_model(replace(spec, n_half=n)))]
        for i, lam in enumerate(lams):
            v0n, v1n = (spectral_block(w, vecs, lam) for w, vecs in trimmed)
            residuals[i].append(_b4_residual_norm(v0n, v1n))
            clouds[i].append(np.linalg.eigvalsh(projection_difference(v0n, v1n)))
    return tuple(_ess_estimate(lam, n_list, c, r) for lam, c, r in zip(lams, clouds, residuals))


def _ess_estimate(lam, n_list, clouds, residuals) -> EssSpectrumEstimate:
    filtered = transient_filter(clouds[-1], clouds[-2])
    alpha_emp = float(np.max(np.abs(filtered))) if filtered.size else 0.0
    inner = np.sort(filtered[np.abs(filtered) <= alpha_emp + 1e-12])
    fill = float(np.max(np.diff(inner))) if inner.size >= 2 else 0.0
    plus = int(np.sum(np.abs(clouds[-1] - 1.0) <= tol.PM_ONE))
    minus = int(np.sum(np.abs(clouds[-1] + 1.0) <= tol.PM_ONE))
    return EssSpectrumEstimate(lam=lam, n_list=n_list,
                               eigenvalue_clouds=tuple(clouds),
                               filtered_cloud=filtered,
                               alpha_empirical=alpha_emp,
                               fill_distance=fill,
                               plus_one_count=plus,
                               minus_one_count=minus,
                               b4_residuals=tuple(residuals))


def fredholm_check(bv: BoundaryValue, j: np.ndarray) -> dict:
    """Theorem-level equivalence check for the Fredholm property of the pair.

    sigma_min_0 = smallest singular value of I + A0(lambda) J,
    sigma_min_1 = smallest singular value of I - A(lambda) J; both must land
    on the same side of tol.KERNEL_TOL.
    """
    k = bv.a0.shape[0]
    if k == 0:
        return {"sigma_min_0": 1.0, "sigma_min_1": 1.0, "fredholm": True}
    s0 = float(np.linalg.svd(np.eye(k) + bv.a0 @ j, compute_uv=False).min())
    s1 = float(np.linalg.svd(np.eye(k) - bv.a @ j, compute_uv=False).min())
    side0 = s0 > tol.KERNEL_TOL
    side1 = s1 > tol.KERNEL_TOL
    if side0 != side1:
        raise AlphaError(
            f"Fredholm equivalence violated: sigma_min_0={s0:.3e}, "
            f"sigma_min_1={s1:.3e} straddle kernel_tol={tol.KERNEL_TOL:.1e}")
    return {"sigma_min_0": s0, "sigma_min_1": s1, "fredholm": side0}
