"""Sandwiched resolvents T0(z), T(z) and their boundary values at lambda + i0.

For the 1D lattice the free resolvent kernel is available in closed form,
R0(z)(x, y) = w^|x-y| / (w - 1/w) with w + 1/w = z and |w| < 1; elsewhere the
boundary value is reached by evaluating at lambda + i*eps on the truncation
and Richardson-extrapolating eps -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import tolerances as tol
from .opcore import OperatorPair, eig, in_band, leading_singvals, near_band_edge


class ResolventError(ValueError):
    """Invalid evaluation request."""


class ResonanceError(RuntimeError):
    """I + T0(lambda+i0) J is numerically singular at this lambda."""


class ExtrapolationError(RuntimeError):
    """eps -> 0 extrapolation did not converge."""


@dataclass(frozen=True)
class BoundaryValue:
    """Boundary values T0(lambda+i0), T(lambda+i0) and derived real parts.

    A0/B0/A/B are the real and imaginary parts in the operator sense; F0p and
    Fp are the spectral density derivatives B0/pi and B/pi.
    """

    lam: float
    t0: np.ndarray
    t: np.ndarray
    a0: np.ndarray
    b0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    f0p: np.ndarray
    fp: np.ndarray
    err_estimate: float
    route: str

    def to_json(self):
        import json

        def cm(m):
            return [[[float(x.real), float(x.imag)] for x in row] for row in np.atleast_2d(m)]

        def rm(m):
            return [[float(x) for x in row] for row in np.atleast_2d(m)]

        return json.dumps({
            "lambda": self.lam,
            "T0": cm(self.t0), "T": cm(self.t),
            "A0": rm(self.a0), "B0": rm(self.b0),
            "A": rm(self.a), "B": rm(self.b),
            "F0p": rm(self.f0p), "Fp": rm(self.fp),
            "err_estimate": self.err_estimate,
            "route": self.route,
        })


def lattice_w(z):
    """Root of w + 1/w = z with |w| < 1 (resolvent branch).

    On the real band (-2, 2) this is the limit from the upper half plane,
    w = exp(-i kappa) with z = 2 cos kappa, kappa in (0, pi).
    """
    z = complex(z)
    if z.imag == 0.0 and abs(z.real) < 2.0:
        kappa = np.arccos(z.real / 2.0)
        return np.exp(-1j * kappa)
    s = np.sqrt(z * z - 4.0)
    w1 = (z - s) / 2.0
    w2 = (z + s) / 2.0
    return w1 if abs(w1) < abs(w2) else w2


def t0_of_z(pair: OperatorPair, z, mode="truncated") -> np.ndarray:
    """Sandwiched free resolvent T0(z) = G R0(z) G^T restricted to the support."""
    z = complex(z)
    k = pair.k_dim
    if mode == "infinite_lattice":
        if pair.spec.kind != "lattice1d":
            raise ResolventError("infinite_lattice mode requires a lattice1d pair")
        if z.imag < 0:
            raise ResolventError("infinite_lattice mode needs Im z >= 0")
        if z.imag == 0 and near_band_edge(z.real):
            raise ResolventError(f"z = {z} too close to the band edge")
        if k == 0:
            return np.zeros((0, 0), dtype=complex)
        sites, g = pair.support()
        w = lattice_w(z)
        dist = np.abs(sites[:, None] - sites[None, :])
        r0 = w ** dist / (w - 1.0 / w)
        return (g[:, None] * r0) * g[None, :]
    if mode != "truncated":
        raise ResolventError(f"unknown mode {mode!r}")
    if z.imag == 0:
        raise ResolventError("truncated mode requires Im z != 0")
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    # H0 is tridiagonal for every kind: one banded solve
    ab = np.zeros((3, pair.spec.dim), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = pair.h0[1, :-1]
    ab[1] = pair.h0[0] - z
    return pair.g @ solve_banded((1, 1), ab, pair.g.T.astype(complex))


def t_of_z(pair: OperatorPair, t0z: np.ndarray) -> np.ndarray:
    """T(z) = (I + T0(z) J)^{-1} T0(z), with the inversion identity validated."""
    k = t0z.shape[0]
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    j = pair.j
    m = np.eye(k) + t0z @ j
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > tol.RESONANCE_COND:
        raise ResonanceError(f"I + T0 J singular (cond {cond:.3e}); perturb lambda")
    t = np.linalg.solve(m, t0z)
    defect = np.linalg.norm((np.eye(k) - t @ j) @ m - np.eye(k), 2)
    if defect > tol.INVERSION_IDENTITY:
        raise ResolventError(f"resolvent inversion identity violated ({defect:.3e})")
    return t


def _real_imag_parts(m):
    """Operator real/imag parts of a complex symmetric matrix, symmetrized."""
    a = (m + m.conj().T) / 2
    b = (m - m.conj().T) / 2j
    return np.real(a + a.T) / 2, np.real(b + b.T) / 2


def _assemble(pair, lam, t0, err, route):
    t = t_of_z(pair, t0)
    a0, b0 = _real_imag_parts(t0)
    a, b = _real_imag_parts(t)
    for name, mat in (("B0", b0), ("B", b)):
        if mat.size and np.linalg.eigvalsh(mat).min() < -tol.PSD_FLOOR:
            raise ResolventError(f"{name} not positive semidefinite at lambda={lam}")
    return BoundaryValue(lam=float(lam), t0=t0, t=t, a0=a0, b0=b0, a=a, b=b,
                         f0p=b0 / np.pi, fp=b / np.pi,
                         err_estimate=float(err), route=route)


def _richardson(seq):
    """Richardson table for a halving eps schedule; returns (value, err).

    Walks the second-order column and stops where successive differences stop
    decreasing; raises if they never decrease.
    """
    table = [np.asarray(s, dtype=complex) for s in seq]
    for q in (1, 2):
        fac = 2.0 ** q
        table = [(fac * table[i + 1] - table[i]) / (fac - 1.0) for i in range(len(table) - 1)]
    diffs = [np.linalg.norm(table[i + 1] - table[i], 2) if table[i].size else 0.0
             for i in range(len(table) - 1)]
    if not diffs:
        return table[-1], 0.0
    if len(diffs) > 1 and diffs[0] > 0 and all(d >= diffs[0] for d in diffs[1:]):
        raise ExtrapolationError("successive differences do not decrease")
    best = int(np.argmin(diffs))
    return table[best + 1], diffs[best]


def boundary_value(pair: OperatorPair, lam, route="auto") -> BoundaryValue:
    """Boundary value record at lambda + i0.

    route 'closed_form' evaluates the infinite-lattice kernel exactly
    (lattice1d only); 'extrapolated' uses the truncated resolvent at
    eps_j = tol.RICHARDSON_EPS0 * 2^-j, j = 0..tol.RICHARDSON_STEPS, with
    order-2 Richardson extrapolation.
    """
    if route == "auto":
        route = "closed_form" if pair.spec.kind == "lattice1d" else "extrapolated"
    if pair.k_dim == 0:
        z = np.zeros((0, 0), dtype=complex)
        return BoundaryValue(lam=float(lam), t0=z, t=z, a0=z.real, b0=z.real,
                             a=z.real, b=z.real, f0p=z.real, fp=z.real,
                             err_estimate=0.0, route=route)
    if route == "closed_form":
        if pair.spec.kind != "lattice1d":
            raise ResolventError("closed_form route requires lattice1d")
        if not in_band(lam):
            raise ResolventError(f"lambda={lam} within band_margin of the band edge")
        t0 = t0_of_z(pair, complex(lam), mode="infinite_lattice")
        return _assemble(pair, lam, t0, 0.0, "closed_form")
    if route != "extrapolated":
        raise ResolventError(f"unknown route {route!r}")
    eps = [tol.RICHARDSON_EPS0 * 2.0 ** (-jj) for jj in range(tol.RICHARDSON_STEPS + 1)]
    seq = [t0_of_z(pair, lam + 1j * e, mode="truncated") for e in eps]
    t0, err = _richardson(seq)
    return _assemble(pair, lam, t0, err, "extrapolated")


def stone_consistency(pair: OperatorPair, a, b, grid) -> float:
    """Stone's formula check: || (1/pi) int_a^b B0 - (F0(b) - F0(a)) ||.

    B0 comes from the closed-form route; F0 differences from the truncated
    spectral projection E0[a, b) of the pair at its own truncation (opcore.eig),
    with endpoints decided in exact arithmetic (opcore.select_spectrum).
    """
    if grid < 8:
        raise ResolventError("grid must be >= 8")
    if not (in_band(a) and in_band(b) and a < b):
        raise ResolventError("[a, b] must sit inside the band, away from edges")
    lams = np.linspace(a, b, grid)
    vals = np.array([t0_of_z(pair, complex(x), mode="infinite_lattice").imag for x in lams])
    quad = np.trapezoid(vals, lams, axis=0) / np.pi

    gv = pair.g @ eig(pair, "free", a, b, closed="left").eigenvectors
    return float(leading_singvals(quad - gv @ gv.T)[0])
