"""Nystrom discretizations of the model Hankel integral operators.

The comparison operator is Gamma with kernel (1 - e^{-t-s})/(t+s) on the
half-line, whose spectrum is [0, pi].  The maps L0/L reconstruct the product
of spectral projections E(-1,0) E0(0,1) from semigroup integrals, which is the
computable skeleton of the projection-difference analysis.  A Hankel kernel is
a function of x = t + s, evaluated on arrays; every grid spans
(T / tol.GRID_SPAN, T), read at call time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .opcore import OperatorPair, eig, leading_singvals


class HankelError(ValueError):
    """Invalid Hankel discretization request."""


@dataclass(frozen=True)
class HankelDiscretization:
    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray


def graded_grid(n, t_max):
    """Geometric grid on (0, T) refined toward 0, with cell-length weights.

    The grid spans (T/span, T), span = tol.GRID_SPAN, with ratio span^(1/(n-1)),
    so doubling n refines everywhere (at n=200 the ratio is the design value ~1.15).
    """
    if n < 8:
        raise HankelError("need at least 8 quadrature nodes")
    if t_max < 10:
        raise HankelError("truncation T must be >= 10")
    ratio = tol.GRID_SPAN ** (1.0 / (n - 1.0))
    nodes = t_max * ratio ** (np.arange(n) - (n - 1.0))
    mids = np.empty(n + 1)
    mids[0] = 0.0
    mids[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
    mids[-1] = t_max
    weights = np.diff(mids)
    return nodes, weights


def gamma_kernel(x):
    """Gamma's kernel (1 - e^{-x}) / x at x = t + s."""
    return -np.expm1(-x) / x


def _nystrom(kernel, n, t_max) -> HankelDiscretization:
    # the Nystrom matrix root_i root_j K(t_i + t_j) on the graded grid, exactly symmetric
    nodes, weights = graded_grid(n, t_max)
    root = np.sqrt(weights)
    matrix = np.outer(root, root) * kernel(nodes[:, None] + nodes[None, :])
    return HankelDiscretization(nodes=nodes, weights=weights, matrix=matrix)


def gamma_matrix(n, t_max) -> HankelDiscretization:
    """Nystrom matrix of the (1 - e^{-t-s})/(t+s) kernel."""
    return _nystrom(gamma_kernel, n, t_max)


def hankel_bound_check(kernel, c, n, t_max) -> dict:
    """Carleman comparison bound ||K|| <= pi*C for kernels with |K(t)| <= C/t.

    kernel is a scalar kernel evaluated on arrays: kernel(x) returns K at
    every entry of the array x.  The hypothesis is checked on the grid
    nodes before the norm of the returned discretization is formed.
    """
    disc = _nystrom(kernel, n, t_max)
    nodes = disc.nodes
    nrm = np.abs(kernel(nodes))
    bad = np.flatnonzero(nrm > c / nodes + tol.CARLEMAN_HYPOTHESIS)
    if bad.size:
        t, k = nodes[bad[0]], nrm[bad[0]]
        raise HankelError(f"hypothesis ||K(t)|| <= C/t violated at t={t:.3e} "
                          f"({k:.3e} > {c / t:.3e})")
    norm = leading_singvals(disc.matrix)
    return {"norm": norm, "bound_ok": bool(norm <= np.pi * c + tol.CARLEMAN_BOUND),
            "discretization": disc}


def gamma_tensor_spectrum(q: np.ndarray, n, t_max) -> np.ndarray:
    """Eigenvalues of Gamma^2 tensor Q as sorted Kronecker products."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    wq = np.linalg.eigvalsh((q + q.T) / 2)
    if q.size and wq.min() < -tol.PSD_FLOOR:
        raise HankelError("Q must be positive semidefinite")
    wq = np.clip(wq, 0.0, None)
    gamma = gamma_matrix(n, t_max)
    wg = np.linalg.eigvalsh(gamma.matrix) ** 2
    return np.sort(np.outer(wg, wq).ravel())


def build_l_operators(pair: OperatorPair, lam, n, t_max) -> dict:
    """Discretized L0, L and the residual of E(-1,0) E0(0,1) = -L J L0^*.

    Spectra are translated so the reference point lambda sits at 0; the unit
    windows (0,1) for H0 and (-1,0) for H make every semigroup factor decay.
    Both windows are open in exact arithmetic (opcore.eig), so an eigenvalue
    on lambda belongs to neither.  With L0 = v0 c0 and L = v1 c1 on the window
    eigenvectors v0, v1, residual_b16 = ||v1 v1^T v0 v0^T + L J L0^T|| is the
    top singular value of the k1 x k0 factor v1^T v0 + c1 J c0^T.
    """
    nodes, weights = graded_grid(n, t_max)
    cols = np.repeat(np.sqrt(weights), pair.k_dim)

    def semigroup(v, mu):
        # column block i is sqrt(w_i) v e^{-t_i mu} v^T G^T: one product batched over the nodes,
        # and the coefficients c of L = v c
        a = np.exp(-np.outer(nodes, mu))[:, :, None] * (v.T @ pair.g.T)
        coef = a.transpose(1, 0, 2).reshape(v.shape[1], cols.size) * cols
        return (v @ a).transpose(1, 0, 2).reshape(v.shape[0], cols.size) * cols, coef

    dec0 = eig(pair, "free", lam, lam + 1.0)
    dec1 = eig(pair, "full", lam - 1.0, lam)
    v0, v1 = dec0.eigenvectors, dec1.eigenvectors
    l0, c0 = semigroup(v0, dec0.eigenvalues - lam)
    l1, c1 = semigroup(v1, lam - dec1.eigenvalues)
    c1j = (c1.reshape(c1.shape[0], n, pair.k_dim) @ pair.j).reshape(c1.shape)   # J per node
    # v1 v1^T v0 v0^T + L J L0^T = v1 (v1^T v0 + c1 J c0^T) v0^T, and v0, v1 are orthonormal
    residual = leading_singvals(v1.T @ v0 + c1j @ c0.T)
    return {"L0": l0, "L": l1, "residual_b16": residual,
            "nodes": nodes, "weights": weights}
