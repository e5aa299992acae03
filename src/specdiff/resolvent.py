"""Sandwiched resolvents T0(z), T(z) and their boundary values at lambda + i0.

For the 1D lattice the free resolvent kernel is available in closed form,
R0(z)(x, y) = w^|x-y| / (w - 1/w) with w + 1/w = z and |w| < 1; elsewhere the
boundary value is reached by evaluating at lambda + i*eps on the truncation
and Richardson-extrapolating eps -> 0.

lattice_w, t0_of_z, t_of_z and boundary_value take a lambda (or z) batch as
well as a scalar: a 1-D array of lambda gives a BoundaryValue whose lam and
err_estimate are arrays and whose matrices are stacks, one k x k matrix per
point, and every check runs on every point and raises with the message of the
first point that fails.  A scalar lambda is the batch of one, returned
without the batch axis.  The extrapolated route makes one banded solve per (lambda, eps) and runs its
Richardson table on the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import tolerances as tol
from .opcore import (OperatorPair, count_below, eig, first_true, in_band, leading_singvals,
                     near_band_edge, unbatch)


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
    Fp are the spectral density derivatives B0/pi and B/pi.  They are derived
    from T0 and T on each access, so a record holds two matrices (stacks).
    For a lambda batch lam and err_estimate are arrays and each matrix is a
    stack, one k x k matrix per lambda; to_json writes a single point.
    """

    lam: float
    t0: np.ndarray
    t: np.ndarray
    err_estimate: float
    route: str

    @property
    def a0(self):
        return _real_part(self.t0)

    @property
    def b0(self):
        return _imag_part(self.t0)

    @property
    def a(self):
        return _real_part(self.t)

    @property
    def b(self):
        return _imag_part(self.t)

    @property
    def f0p(self):
        return self.b0 / np.pi

    @property
    def fp(self):
        return self.b / np.pi

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
    """Root of w + 1/w = z with |w| < 1 (resolvent branch), elementwise for an array of z.

    On the real band (-2, 2) this is the limit from the upper half plane,
    w = exp(-i kappa) with z = 2 cos kappa, kappa in (0, pi).
    """
    z = np.asarray(z, dtype=complex)
    on_band = (z.imag == 0.0) & (abs(z.real) < 2.0)
    s = np.sqrt(z * z - 4.0)
    w1 = (z - s) / 2.0
    w2 = (z + s) / 2.0
    kappa = np.arccos(np.where(on_band, z.real, 0.0) / 2.0)
    return np.where(on_band, np.exp(-1j * kappa), np.where(abs(w1) < abs(w2), w1, w2))[()]


def t0_of_z(pair: OperatorPair, z, mode="truncated") -> np.ndarray:
    """Sandwiched free resolvent T0(z) = G R0(z) G^T restricted to the support.

    An array of z gives a stack: the shape of z, then k x k.  The truncated
    mode makes one banded solve per z.
    """
    z = np.asarray(z, dtype=complex)
    if mode == "infinite_lattice":
        if pair.spec.kind != "lattice1d":
            raise ResolventError("infinite_lattice mode requires a lattice1d pair")
        if np.any(z.imag < 0):
            raise ResolventError("infinite_lattice mode needs Im z >= 0")
        i = first_true((z.imag == 0) & near_band_edge(z.real))
        if i is not None:
            raise ResolventError(f"z = {complex(z.flat[i])} too close to the band edge")
        sites, g = pair.support()
        w = lattice_w(z)[..., None, None]
        dist = np.abs(sites[:, None] - sites[None, :])
        r0 = w ** dist / (w - 1.0 / w)
        return (g[:, None] * r0) * g[None, :]
    if mode != "truncated":
        raise ResolventError(f"unknown mode {mode!r}")
    if np.any(z.imag == 0):
        raise ResolventError("truncated mode requires Im z != 0")
    # H0 is tridiagonal for every kind: one banded solve per z
    ab = np.zeros((3, pair.spec.dim), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = pair.h0[1, :-1]
    rhs = pair.g.T.astype(complex)
    t0 = np.empty(z.shape + (pair.k_dim, pair.k_dim), dtype=complex)
    for idx, zz in np.ndenumerate(z):
        ab[1] = pair.h0[0] - zz
        t0[idx] = pair.g @ solve_banded((1, 1), ab, rhs)
    return t0


def t_of_z(pair: OperatorPair, t0z: np.ndarray) -> np.ndarray:
    """T(z) = (I + T0(z) J)^{-1} T0(z), with the inversion identity validated.

    t0z is one k x k matrix or a stack of them; each matrix is checked.
    """
    k = t0z.shape[-1]
    if k == 0:                   # np.linalg.cond raises on a 0 x 0 matrix
        return np.zeros(t0z.shape, dtype=complex)
    j = pair.j
    m = np.eye(k) + t0z @ j
    cond = np.linalg.cond(m)
    i = first_true(~np.isfinite(cond) | (cond > tol.RESONANCE_COND))
    if i is not None:
        raise ResonanceError(f"I + T0 J singular (cond {np.ravel(cond)[i]:.3e}); perturb lambda")
    t = np.linalg.solve(m, t0z)
    defect = np.linalg.norm((np.eye(k) - t @ j) @ m - np.eye(k), 2, axis=(-2, -1))
    i = first_true(defect > tol.INVERSION_IDENTITY)
    if i is not None:
        raise ResolventError(f"resolvent inversion identity violated ({np.ravel(defect)[i]:.3e})")
    return t


def _real_part(m):
    """Operator real part (M + M^*)/2 of a complex symmetric matrix or stack, symmetrized."""
    a = (m + np.swapaxes(m.conj(), -1, -2)) / 2
    return np.real(a + np.swapaxes(a, -1, -2)) / 2


def _imag_part(m):
    """Operator imaginary part (M - M^*)/2i of a complex symmetric matrix or stack, symmetrized."""
    b = (m - np.swapaxes(m.conj(), -1, -2)) / 2j
    return np.real(b + np.swapaxes(b, -1, -2)) / 2


def _assemble(pair, lam, t0, err, route):
    t = t_of_z(pair, t0)
    for name, m in (("B0", t0), ("B", t)):
        w_min = np.linalg.eigvalsh(_imag_part(m)).min(axis=-1, initial=np.inf)
        i = first_true(w_min < -tol.PSD_FLOOR)
        if i is not None:
            raise ResolventError(f"{name} not positive semidefinite at lambda={lam.flat[i]}")
    return BoundaryValue(lam=unbatch(lam), t0=t0, t=t, err_estimate=unbatch(err), route=route)


def _richardson(table):
    """Richardson table for a halving eps schedule; returns (value, err).

    The table's first axis runs over eps; each entry is one matrix or a stack
    of them, and each matrix of a stack is extrapolated on its own.  Walks the
    second-order column and stops where successive differences stop
    decreasing; raises if they never decrease.
    """
    table = np.asarray(table, dtype=complex)
    for q in (1, 2):
        fac = 2.0 ** q
        table = (fac * table[1:] - table[:-1]) / (fac - 1.0)
    if len(table) < 2:
        return table[-1], np.zeros(table.shape[1:-2])
    diffs = np.linalg.norm(table[1:] - table[:-1], 2, axis=(-2, -1))
    if len(diffs) > 1 and np.any((diffs[0] > 0) & np.all(diffs[1:] >= diffs[0], axis=0)):
        raise ExtrapolationError("successive differences do not decrease")
    best = np.argmin(diffs, axis=0)[None]
    value = np.take_along_axis(table[1:], best[..., None, None], axis=0)[0]
    return value, np.take_along_axis(diffs, best, axis=0)[0]


def boundary_value(pair: OperatorPair, lam, route="auto") -> BoundaryValue:
    """Boundary value record at lambda + i0, for one lambda or a 1-D array of them.

    route 'closed_form' evaluates the infinite-lattice kernel exactly
    (lattice1d only); 'extrapolated' uses the truncated resolvent at
    eps_j = tol.RICHARDSON_EPS0 * 2^-j, j = 0..tol.RICHARDSON_STEPS, with
    order-2 Richardson extrapolation.
    """
    lam = np.asarray(lam, dtype=float)
    if route == "auto":
        route = "closed_form" if pair.spec.kind == "lattice1d" else "extrapolated"
    if route == "closed_form":
        if pair.spec.kind != "lattice1d":
            raise ResolventError("closed_form route requires lattice1d")
        i = first_true(np.logical_not(in_band(lam)))
        if i is not None:
            raise ResolventError(f"lambda={lam.flat[i]} within band_margin of the band edge")
        t0 = t0_of_z(pair, lam, mode="infinite_lattice")
        return _assemble(pair, lam, t0, np.zeros(lam.shape), "closed_form")
    if route != "extrapolated":
        raise ResolventError(f"unknown route {route!r}")
    eps = np.array([tol.RICHARDSON_EPS0 * 2.0 ** (-jj) for jj in range(tol.RICHARDSON_STEPS + 1)])
    # T0 at every (lambda, eps), eps first.  It is bound to no name here, and
    # _richardson rebinds its argument, so the traceback of an
    # ExtrapolationError holds the extrapolated table, not every solve
    t0, err = _richardson(np.moveaxis(t0_of_z(pair, lam[..., None] + 1j * eps, mode="truncated"),
                                      -3, 0))
    return _assemble(pair, lam, t0, err, "extrapolated")


def stone_consistency(pair: OperatorPair, a, b, grid) -> float:
    """Stone's formula check: || (1/pi) int_a^b B0 - (F0(b) - F0(a)) ||.

    B0 comes from the closed-form route; F0 differences from the truncated
    spectral projection E0[a, b) of the pair at its own truncation (opcore.eig):
    the columns from the prefix below a to the prefix below b, with endpoints
    decided in exact arithmetic (opcore.count_below).
    """
    if grid < 8:
        raise ResolventError("grid must be >= 8")
    if not (in_band(a) and in_band(b) and a < b):
        raise ResolventError("[a, b] must sit inside the band, away from edges")
    lams = np.linspace(a, b, grid)
    vals = t0_of_z(pair, lams, mode="infinite_lattice").imag
    quad = np.trapezoid(vals, lams, axis=0) / np.pi

    dec = eig(pair, "free")
    w = dec.eigenvalues
    gv = pair.g @ dec.eigenvectors[:, count_below(w, a):count_below(w, b)]
    return leading_singvals(quad - gv @ gv.T)
