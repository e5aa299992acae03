"""Three routes to alpha(lambda) and truncation-ladder essential spectra of D.

alpha(lambda) = lim (pi/2eps) ||(G E0(lambda-eps,lambda+eps))^T J G E(...)||
is computed (i) from the derivative formula pi ||F0'^(1/2) J F'^(1/2)||,
(ii) from the unitary S-tilde matrix, (iii) from the projection-window limit
on finite truncations.  d_spectrum_ladder tracks the eigenvalue cloud of
D = E(-inf,lambda) - E0(-inf,lambda) along a ladder of truncations, for one
lambda or a lambda batch from one decomposition per rung.
The ladders (opcore._ladder) and alpha_proj_limit read only the rung
(opcore.ladder_rung), which chooses its route from the pair; D's cloud is Rung.cloud of the step 1
strictly below lambda (select_spectrum).  E0 is an exact prefix mask in the rung
basis, so the D^2 identity residual is Q^2 - Q for E = Q, in closed form from
the Gram matrix of the rung's eigenvector block W[:, :k1] (_b4_residual_norm).

psd_sqrt, alpha_derivative, stilde_matrix, alpha_smatrix and fredholm_check
take the BoundaryValue of one lambda or of a lambda batch (stacked matrices,
resolvent.boundary_value); for a batch their values are arrays, one entry per
lambda, and every check runs on every point and raises with the message of the
first point that fails.  V = 0 gives 0 x 0 matrices, on which the same code
gives alpha = 0.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tolerances as tol
from .opcore import (ModelSpec, OperatorPair, _ladder, count_below, first_true, in_band,
                     ladder_rung, leading_singvals, select_spectrum, unbatch)
from .opcore import build_model  # noqa: F401  the name perfbench's tracer test rebinds here
from .resolvent import BoundaryValue


class AlphaError(ValueError):
    """Invalid alpha computation request."""


@dataclass(frozen=True)
class AlphaEstimate:
    """alpha at one lambda, or at each lambda of a batch (lam and value are then arrays)."""

    lam: float
    value: float
    route: str
    diagnostics: tuple = ()

    def __post_init__(self):
        value = np.ravel(self.value)
        i = first_true(value < -tol.ALPHA_FLOOR)
        if i is not None:
            raise AlphaError(f"negative alpha {value[i]}")
        i = first_true(value > 1.0 + tol.ALPHA_CAP)
        if i is not None:
            raise AlphaError(f"alpha {value[i]} exceeds the unit cap")


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
        doc = asdict(self)
        return json.dumps({"lambda": doc.pop("lam"), **doc}, default=np.ndarray.tolist)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric square root with negative eigenvalues down to -tol.PSD_FLOOR clamped at zero.

    m is one matrix or a stack of them; each is checked.
    """
    w, v = np.linalg.eigh((m + np.swapaxes(m, -1, -2)) / 2)
    w_min = w.min(axis=-1, initial=np.inf)
    i = first_true(w_min < -tol.PSD_FLOOR)
    if i is not None:
        raise AlphaError(f"matrix not PSD (min eigenvalue {np.ravel(w_min)[i]:.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2)


def alpha_derivative(bv: BoundaryValue, j: np.ndarray) -> AlphaEstimate:
    """alpha(lambda) = pi ||F0'(lambda)^(1/2) J F'(lambda)^(1/2)||."""
    m = psd_sqrt(bv.f0p) @ j @ psd_sqrt(bv.fp)
    value = np.pi * np.linalg.norm(m, 2, axis=(-2, -1))
    return AlphaEstimate(lam=bv.lam, value=unbatch(value), route="derivative",
                         diagnostics=(("err_estimate", bv.err_estimate),))


def stilde_matrix(bv: BoundaryValue, j: np.ndarray) -> np.ndarray:
    """Unitary S-tilde(lambda) = I - 2i B0^(1/2) (J - J T J) B0^(1/2)."""
    root = psd_sqrt(bv.b0)
    return np.eye(bv.t0.shape[-1]) - 2j * root @ (j - j @ bv.t @ j) @ root


def alpha_smatrix(bv: BoundaryValue, j: np.ndarray) -> AlphaEstimate:
    """alpha(lambda) = ||S-tilde(lambda) - I|| / 2, with unitarity asserted."""
    st = stilde_matrix(bv, j)
    k = st.shape[-1]
    defect = np.linalg.norm(np.swapaxes(st.conj(), -1, -2) @ st - np.eye(k), 2, axis=(-2, -1))
    i = first_true(defect > tol.UNITARITY)
    if i is not None:
        raise AlphaError(f"S-tilde unitarity defect {np.ravel(defect)[i]:.3e}: "
                         "boundary values inconsistent")
    value = 0.5 * np.linalg.norm(st - np.eye(k), 2, axis=(-2, -1))
    return AlphaEstimate(lam=bv.lam, value=unbatch(value), route="smatrix_tilde",
                         diagnostics=(("unitarity_defect", unbatch(defect)),))


def alpha_proj_limit(pair: OperatorPair, lam, eps_schedule) -> AlphaEstimate:
    """Window-projection route on a finite truncation.

    For each eps computes (pi/2eps) ||(G E0(win))^T J G E(win)|| over the
    open window win = (lam - eps, lam + eps) and extrapolates linearly in eps
    from the two smallest scheduled values.  The pair is decomposed once
    (opcore.ladder_rung), and every window is cut from its whole spectra by
    opcore.select_spectrum.  G E0 is the rung's g_free and G E is g_free W; V = 0
    gives the rung with no rows, on which every window norm is 0.
    """
    eps_schedule = sorted(set(float(e) for e in eps_schedule), reverse=True)
    if not eps_schedule:
        raise AlphaError("empty eps schedule")
    n = pair.spec.n_half
    for e in eps_schedule:
        if e * n < tol.EPS_N_MIN:
            raise AlphaError(f"eps*N = {e * n:.1f} < {tol.EPS_N_MIN}: window too narrow "
                             "for the truncation")
    if pair.spec.kind == "lattice1d" and not in_band(lam):
        raise AlphaError(f"lambda={lam} within band_margin of the band edge")
    rung = ladder_rung(pair)
    g_full = rung.g_free @ rung.overlap
    diag = []
    for e in eps_schedule:
        b0 = rung.g_free[:, select_spectrum(rung.free, lam - e, lam + e)]
        b1 = g_full[:, select_spectrum(rung.full, lam - e, lam + e)]
        diag.append((e, (np.pi / (2.0 * e)) * leading_singvals(b0.T @ pair.j @ b1)))
    if len(diag) >= 2:
        (e1, v1), (e2, v2) = diag[-2], diag[-1]
        value = v2 + (v1 - v2) * (0.0 - e2) / (e1 - e2)
    else:
        value = diag[-1][1]
    return AlphaEstimate(lam=float(lam), value=float(max(value, 0.0)),
                         route="proj_limit", diagnostics=tuple(diag))


def _b4_residual_norm(w1):
    """2-norm of D^2 - E0- E+ E0- - E0+ E- E0+ (complementary splits), in closed form.

    In H0's eigenbasis E0- is a prefix mask P and E- = Q = w1 w1^T, w1 = W[:, :k1].
    P is exactly idempotent, so with E0+ = I - P and E+ = I - Q the residual is
    Q^2 - Q = w1 (G - I) w1^T, G = w1^T w1, whatever P is: its 2-norm is
    max |g (g - 1)| over the eigenvalues g of G, w1's orthogonality defect.
    """
    g = np.linalg.eigvalsh(w1.T @ w1)
    return float(np.max(np.abs(g * (g - 1.0)), initial=0.0))


def nearest_distances(x, points):
    """|x_i - p| for the nearest p of the ascending, non-empty real points, for each x_i."""
    pos = np.searchsorted(points, x)
    lo = np.clip(pos - 1, 0, points.size - 1)
    hi = np.clip(pos, 0, points.size - 1)
    return np.minimum(np.abs(x - points[lo]), np.abs(x - points[hi]))


def transient_filter(cloud, prev_cloud, move_tol=None):
    """Drop eigenvalues that moved by more than move_tol since the previous rung.

    move_tol defaults to tol.TRANSIENT_MOVE, read at call time.
    """
    if move_tol is None:
        move_tol = tol.TRANSIENT_MOVE
    cloud = np.sort(np.asarray(cloud))
    prev = np.sort(np.asarray(prev_cloud))
    if prev.size == 0:
        return cloud[np.abs(cloud) <= move_tol]
    return cloud[nearest_distances(cloud, prev) <= move_tol]


def d_spectrum_ladder(spec: ModelSpec, lam, n_list):
    """Eigenvalue clouds of D = E(-inf,lam) - E0(-inf,lam) along a truncation ladder.

    lam is one lambda, which gives one EssSpectrumEstimate, or a 1-D array of
    them, which gives a tuple of them, one per lambda.  n_list is checked, and
    each rung built and decomposed once, by opcore._ladder (at least 3 rungs),
    and every lambda reads only the rung: its spectra and the overlap
    W = Phi^T Psi in H0's eigenbasis.  The cloud of every lambda is Rung.cloud
    of the step 1 strictly below lambda (select_spectrum: an eigenvalue on
    lambda is left out), the singular values of two cross blocks of W.  E0 is
    an exact prefix mask, so the D^2 residual is Q^2 - Q for Q = W1 W1^T,
    W1 = W[:, :k1]: W's orthogonality defect, from the eigenvalues of W1^T W1
    (_b4_residual_norm).
    """
    batch = np.ndim(lam) > 0
    lams = np.ravel(np.asarray(lam, dtype=float)).tolist()
    n_list, rungs = _ladder(spec, n_list, 3, AlphaError)
    clouds = [[] for _ in lams]
    residuals = [[] for _ in lams]
    for rung in rungs:
        for i, x in enumerate(lams):
            residuals[i].append(_b4_residual_norm(rung.overlap[:, :count_below(rung.full, x)]))
            clouds[i].append(rung.cloud(lambda w, x=x: select_spectrum(w, hi=x).astype(float)))
    ests = tuple(_ess_estimate(x, n_list, c, r) for x, c, r in zip(lams, clouds, residuals))
    return ests if batch else ests[0]


def _ess_estimate(lam, n_list, clouds, residuals) -> EssSpectrumEstimate:
    filtered = transient_filter(clouds[-1], clouds[-2])
    alpha_emp = float(np.max(np.abs(filtered))) if filtered.size else 0.0
    fill = float(np.max(np.diff(filtered))) if filtered.size >= 2 else 0.0
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
    k = bv.t0.shape[-1]
    if k == 0:                   # sigma_min of an empty matrix is 1 by convention
        one = unbatch(np.ones(np.shape(bv.lam)))
        return {"sigma_min_0": one, "sigma_min_1": one, "fredholm": one > tol.KERNEL_TOL}
    s0 = np.linalg.svd(np.eye(k) + bv.a0 @ j, compute_uv=False).min(axis=-1)
    s1 = np.linalg.svd(np.eye(k) - bv.a @ j, compute_uv=False).min(axis=-1)
    side0 = s0 > tol.KERNEL_TOL
    side1 = s1 > tol.KERNEL_TOL
    i = first_true(side0 != side1)
    if i is not None:
        raise AlphaError(
            f"Fredholm equivalence violated: sigma_min_0={np.ravel(s0)[i]:.3e}, "
            f"sigma_min_1={np.ravel(s1)[i]:.3e} straddle kernel_tol={tol.KERNEL_TOL:.1e}")
    return {"sigma_min_0": unbatch(s0), "sigma_min_1": unbatch(s1), "fredholm": unbatch(side0)}
