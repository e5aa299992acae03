"""Nystrom discretizations of the model Hankel integral operators.

The comparison operator is Gamma with kernel (1 - e^{-t-s})/(t+s) on the
half-line, whose spectrum is [0, pi].  The maps L0/L reconstruct the product
of spectral projections E(-1,0) E0(0,1) from semigroup integrals, which is the
computable skeleton of the projection-difference analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import svds

from .opcore import OperatorPair, eig

GRID_SPAN = 1e12
SYM_TOL = 1e-12


class HankelError(ValueError):
    """Invalid Hankel discretization request."""


@dataclass(frozen=True)
class HankelDiscretization:
    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray


def opnorm2(m: np.ndarray) -> float:
    """Largest singular value; iterative for large dense matrices."""
    if min(m.shape) == 0:
        return 0.0
    if max(m.shape) <= 600:
        return float(np.linalg.norm(m, 2))
    v0 = np.full(m.shape[1], 1.0 / np.sqrt(m.shape[1]))
    s = svds(m, k=1, v0=v0, return_singular_vectors=False)
    return float(s[0])


def graded_grid(n, t_max, span=GRID_SPAN):
    """Geometric grid on (0, T) refined toward 0, with cell-length weights.

    The grid spans (T/span, T) with ratio span^(1/(n-1)), so doubling n
    refines everywhere (at n=200 the ratio is the design value ~1.15).
    """
    if n < 8:
        raise HankelError("need at least 8 quadrature nodes")
    if t_max < 10:
        raise HankelError("truncation T must be >= 10")
    ratio = span ** (1.0 / (n - 1.0))
    nodes = t_max * ratio ** (np.arange(n) - (n - 1.0))
    mids = np.empty(n + 1)
    mids[0] = 0.0
    mids[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
    mids[-1] = t_max
    weights = np.diff(mids)
    return nodes, weights


def gamma_kernel(t, s):
    x = np.asarray(t) + np.asarray(s)
    return -np.expm1(-x) / x


def gamma_matrix(n, t_max, span=GRID_SPAN) -> HankelDiscretization:
    """Symmetrized Nystrom matrix of the (1 - e^{-t-s})/(t+s) kernel."""
    nodes, weights = graded_grid(n, t_max, span)
    root = np.sqrt(weights)
    m = root[:, None] * gamma_kernel(nodes[:, None], nodes[None, :]) * root[None, :]
    m = (m + m.T) / 2
    return HankelDiscretization(nodes=nodes, weights=weights, matrix=m)


def hankel_bound_check(kernel, c, n, t_max, span=GRID_SPAN) -> dict:
    """Carleman comparison bound ||K|| <= pi*C for kernels with ||K(t)|| <= C/t.

    kernel(t) may return a scalar or a small symmetric matrix.  The hypothesis
    is checked on the grid before the discretized norm is formed.
    """
    nodes, weights = graded_grid(n, t_max, span)
    blocks = [np.atleast_2d(np.asarray(kernel(t), dtype=float)) for t in nodes]
    kdim = blocks[0].shape[0]
    for t, blk in zip(nodes, blocks):
        nrm = np.linalg.norm(blk, 2)
        if nrm > c / t + 1e-12:
            raise HankelError(f"hypothesis ||K(t)|| <= C/t violated at t={t:.3e} "
                              f"({nrm:.3e} > {c / t:.3e})")
    root = np.sqrt(weights)
    big = np.zeros((n * kdim, n * kdim))
    cache = {}
    for i in range(n):
        for jj in range(i, n):
            key = nodes[i] + nodes[jj]
            if key not in cache:
                cache[key] = np.atleast_2d(np.asarray(kernel(key), dtype=float))
            blk = root[i] * root[jj] * cache[key]
            big[i * kdim:(i + 1) * kdim, jj * kdim:(jj + 1) * kdim] = blk
            big[jj * kdim:(jj + 1) * kdim, i * kdim:(i + 1) * kdim] = blk.T
    norm = opnorm2(big)
    return {"norm": norm, "bound_ok": bool(norm <= np.pi * c + 1e-6)}


def gamma_tensor_spectrum(q: np.ndarray, n, t_max, span=GRID_SPAN) -> np.ndarray:
    """Eigenvalues of Gamma^2 tensor Q as sorted Kronecker products."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    wq = np.linalg.eigvalsh((q + q.T) / 2)
    if q.size and wq.min() < -1e-10:
        raise HankelError("Q must be positive semidefinite")
    wq = np.clip(wq, 0.0, None)
    gamma = gamma_matrix(n, t_max, span)
    wg = np.linalg.eigvalsh(gamma.matrix) ** 2
    return np.sort(np.outer(wg, wq).ravel())


def build_l_operators(pair: OperatorPair, lam, n, t_max, span=GRID_SPAN) -> dict:
    """Discretized L0, L and the residual of E(-1,0) E0(0,1) = -L J L0^*.

    Spectra are translated so the reference point lambda sits at 0; the unit
    windows (0,1) for H0 and (-1,0) for H make every semigroup factor decay.
    Both windows are open in exact arithmetic (opcore.eig), so an eigenvalue
    on lambda belongs to neither.
    """
    nodes, weights = graded_grid(n, t_max, span)
    root = np.sqrt(weights)
    dec0 = eig(pair, "free", lam, lam + 1.0)
    dec1 = eig(pair, "full", lam - 1.0, lam)
    v0, v1 = dec0.eigenvectors, dec1.eigenvectors
    mu0, mu1 = dec0.eigenvalues - lam, dec1.eigenvalues - lam
    k = pair.k_dim
    nh = pair.spec.dim
    c0 = v0.T @ pair.g.T          # m0 x k
    c1 = v1.T @ pair.g.T          # m1 x k
    l0 = np.empty((nh, n * k))
    l1 = np.empty((nh, n * k))
    for i, (t, r) in enumerate(zip(nodes, root)):
        l0[:, i * k:(i + 1) * k] = r * (v0 @ (np.exp(-t * mu0)[:, None] * c0))
        l1[:, i * k:(i + 1) * k] = r * (v1 @ (np.exp(t * mu1)[:, None] * c1))
    jblk = np.kron(np.eye(n), pair.j)
    lhs = v1 @ (v1.T @ v0) @ v0.T
    residual = opnorm2(lhs + (l1 @ jblk) @ l0.T)
    return {"L0": l0, "L": l1, "residual_b16": float(residual),
            "nodes": nodes, "weights": weights}
