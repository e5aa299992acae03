"""Closed-form 1D lattice scattering: transfer-matrix and stationary S(lambda).

The transfer-matrix route propagates plane waves across the compactly
supported potential and is the independent ground truth; the stationary route
rebuilds the 2x2 scattering matrix from the boundary-value data through
S = I - 2 pi i Z (J - J T J) Z^* with pi Z^* Z = B0.

Both routes take one lambda or a lambda batch: smatrix_transfer a 1-D array
of lambda, whose site recurrence then runs on every lambda at once, and
smatrix_stationary the BoundaryValue of a batch (resolvent.boundary_value).
A batch gives a stack of 2 x 2 matrices, and every check runs on every point
and raises with the message of the first point that fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .opcore import OperatorPair, first_true, in_band, unbatch
from .resolvent import BoundaryValue


class ScatteringError(ValueError):
    """Invalid scattering computation."""


@dataclass(frozen=True)
class LatticeScattering:
    """S(lambda) at one lambda, or at each lambda of a batch (fields are then arrays, s a stack)."""

    lam: float
    kappa: float
    t: complex
    r_plus: complex
    r_minus: complex
    s: np.ndarray

    def __post_init__(self):
        s = self.s
        defect = np.linalg.norm(np.swapaxes(s.conj(), -1, -2) @ s - np.eye(2), 2, axis=(-2, -1))
        i = first_true(defect > tol.SCATTERING_UNITARITY)
        if i is not None:
            raise ScatteringError(f"S matrix unitarity defect {np.ravel(defect)[i]:.3e}")


def _propagate(potential, lam, kappa, incoming_right):
    """Plane-wave matching across the support; returns (t, r), elementwise in lam and kappa."""
    sites = {int(s): float(v) for s, v in potential}
    a = min(sites) if sites else 0
    b = max(sites) if sites else 0
    sgn = -1.0 if incoming_right else 1.0
    # transmitted side: pure e^{+-i kappa x} beyond the far edge of the support
    if incoming_right:
        x0, x1 = a - 2, a - 1
        rng = range(a - 1, b + 2)
        step = 1
    else:
        x0, x1 = b + 2, b + 1
        rng = range(b + 1, a - 2, -1)
        step = -1
    u = {x0: np.exp(sgn * 1j * kappa * x0), x1: np.exp(sgn * 1j * kappa * x1)}
    for x in rng:
        v = sites.get(x, 0.0)
        u[x + step] = (lam - v) * u[x] - u[x - step]
    # two free sites past the near edge of the support
    y1 = (b + 1) if incoming_right else (a - 1)
    y2 = (b + 2) if incoming_right else (a - 2)
    e1, e2 = np.exp(sgn * 1j * kappa * y1), np.exp(sgn * 1j * kappa * y2)
    # u(y) = A e^{sgn i kappa y} + B e^{-sgn i kappa y} on the incoming side
    det = e1 * np.conj(e2) - np.conj(e1) * e2
    big_a = (u[y1] * np.conj(e2) - np.conj(e1) * u[y2]) / det
    big_b = (e1 * u[y2] - u[y1] * e2) / det
    return 1.0 / big_a, big_b / big_a


def smatrix_transfer(potential, lam) -> LatticeScattering:
    """Transfer-matrix S(lambda) for a compactly supported lattice potential.

    lam is one lambda or a 1-D array of them.
    """
    lam = np.asarray(lam, dtype=float)
    i = first_true(np.logical_not(in_band(lam)))
    if i is not None:
        raise ScatteringError(f"lambda={lam.flat[i]} too close to the band edge")
    kappa = np.arccos(lam / 2.0)
    potential = [(int(s), float(v)) for s, v in potential if float(v) != 0.0]
    if not potential:
        t_l = np.ones(lam.shape, dtype=complex)
        r_plus = r_minus = np.zeros(lam.shape, dtype=complex)
    else:
        t_l, r_plus = _propagate(potential, lam, kappa, incoming_right=False)
        t_r, r_minus = _propagate(potential, lam, kappa, incoming_right=True)
        if np.any(abs(t_l - t_r) > tol.RECIPROCITY):
            raise ScatteringError("transmission reciprocity violated")
    s = np.stack([np.stack([t_l, r_minus], axis=-1), np.stack([r_plus, t_l], axis=-1)], axis=-2)
    return LatticeScattering(lam=unbatch(lam), kappa=unbatch(kappa), t=t_l[()],
                             r_plus=r_plus[()], r_minus=r_minus[()], s=s)


def smatrix_stationary(pair: OperatorPair, bv: BoundaryValue) -> np.ndarray:
    """Stationary-representation S(lambda) = I - 2 pi i Z (J - J T J) Z^*.

    Z maps the support space into the two-dimensional fiber of lattice plane
    waves; its normalization is pinned by pi Z^* Z = B0, which is verified.
    """
    if bv.route != "closed_form":
        raise ScatteringError("stationary route requires closed-form boundary values")
    if pair.spec.kind != "lattice1d":
        raise ScatteringError("stationary route requires a lattice1d pair")
    batch = np.shape(bv.lam)
    if pair.k_dim == 0:
        return np.tile(np.eye(2, dtype=complex), batch + (1, 1))
    kappa = np.arccos(np.asarray(bv.lam) / 2.0)[..., None, None]
    sites, g = pair.support()
    norm = 1.0 / np.sqrt(4.0 * np.pi * np.sin(kappa))
    z = np.concatenate([
        norm * np.exp(-1j * kappa * sites) * g,
        norm * np.exp(+1j * kappa * sites) * g,
    ], axis=-2)
    zh = np.swapaxes(z.conj(), -1, -2)
    c6_defect = np.linalg.norm(np.pi * zh @ z - bv.b0, 2, axis=(-2, -1))
    i = first_true(c6_defect > tol.STATIONARY_Z_NORMALIZATION)
    if i is not None:
        raise ScatteringError(f"pi Z*Z = B0 violated ({np.ravel(c6_defect)[i]:.3e})")
    core = pair.j - pair.j @ bv.t @ pair.j
    return np.eye(2) - 2j * np.pi * z @ core @ zh
