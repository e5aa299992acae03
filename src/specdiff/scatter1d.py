"""Closed-form 1D lattice scattering: transfer-matrix and stationary S(lambda).

The transfer-matrix route propagates plane waves across the compactly
supported potential and is the independent ground truth.  It has one
recurrence, for a wave incoming from the left; a wave incoming from the right
is one incoming from the left on the mirrored potential V(-x), which has the
same t and whose r_plus is the original's r_minus.  The stationary route
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
from .opcore import OperatorPair, _canonical_potential, first_true, in_band, unbatch
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


def _propagate(potential, lam, kappa):
    """Plane-wave matching across the support for a wave incoming from the left.

    Returns (t, r_plus), elementwise in lam and kappa.  A wave incoming from the
    right is one incoming from the left on the mirrored potential V(-x).
    """
    sites = dict(potential)
    a = min(sites) if sites else 0
    b = max(sites) if sites else 0
    # transmitted side: pure e^{i kappa x} beyond the right edge of the support
    u = {b + 2: np.exp(1j * kappa * (b + 2)), b + 1: np.exp(1j * kappa * (b + 1))}
    for x in range(b + 1, a - 2, -1):
        u[x - 1] = (lam - sites.get(x, 0.0)) * u[x] - u[x + 1]
    # u(y) = A e^{i kappa y} + B e^{-i kappa y} on the two free sites left of the support
    e1, e2 = np.exp(1j * kappa * (a - 1)), np.exp(1j * kappa * (a - 2))
    det = e1 * np.conj(e2) - np.conj(e1) * e2
    big_a = (u[a - 1] * np.conj(e2) - np.conj(e1) * u[a - 2]) / det
    big_b = (e1 * u[a - 2] - u[a - 1] * e2) / det
    return 1.0 / big_a, big_b / big_a


def smatrix_transfer(potential, lam) -> LatticeScattering:
    """Transfer-matrix S(lambda) for a compactly supported lattice potential.

    potential is read by ModelSpec's rule (opcore._canonical_potential), else
    ModelError.  lam is one lambda or a 1-D array of them.
    """
    lam = np.asarray(lam, dtype=float)
    i = first_true(np.logical_not(in_band(lam)))
    if i is not None:
        raise ScatteringError(f"lambda={lam.flat[i]} too close to the band edge")
    kappa = np.arccos(lam / 2.0)
    potential = _canonical_potential(potential)
    if not potential:
        t_l = np.ones(lam.shape, dtype=complex)
        r_plus = r_minus = np.zeros(lam.shape, dtype=complex)
    else:
        t_l, r_plus = _propagate(potential, lam, kappa)
        t_r, r_minus = _propagate([(-s, v) for s, v in potential], lam, kappa)
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
