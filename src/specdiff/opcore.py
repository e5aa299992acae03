"""Model operator pairs, factorizations, and finite-dimensional functional calculus.

Builds the finite truncations of the perturbed/unperturbed pair (H0, H), H0
stored as its bands, with the factorization V = G^T J G, and provides the one
eigensolver of a pair (eig), spectral projections E(-inf, lambda) and
functions of operators phi(H).  Its two thresholds, the symmetry check of
eigendecompose and the on-point rule's SPECTRAL_POINT_ULPS, are read from
specdiff.tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import tolerances as tol

_KINDS = ("lattice1d", "jacobi", "random_traceclass")


class ModelError(ValueError):
    """Invalid model specification."""


def _canonical_potential(potential):
    items = []
    for site, value in potential:
        site = int(site)
        value = float(value)
        if value != 0.0:
            items.append((site, value))
    items.sort()
    sites = [s for s, _ in items]
    if len(set(sites)) != len(sites):
        raise ModelError("duplicate potential sites")
    return tuple(items)


@dataclass(frozen=True)
class ModelSpec:
    """Specification of a finite model pair.

    kind        -- 'lattice1d' (sites -N..N), 'jacobi' (sites 0..N) or
                   'random_traceclass' (dense trace-class V on the lattice).
    n_half      -- truncation half-width N.
    potential   -- tuple of (site, value); ignored for random_traceclass.
    decay_rate  -- eigenvalue decay exponent, random_traceclass only.
    seed        -- RNG seed for the random_traceclass orthogonal conjugation.
    """

    kind: str
    n_half: int
    potential: tuple = ()
    decay_rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ModelError(f"unsupported kind {self.kind!r}")
        if self.n_half < 1:
            raise ModelError("n_half must be >= 1")
        object.__setattr__(self, "potential", _canonical_potential(self.potential))
        if self.kind == "random_traceclass":
            if self.decay_rate is None or self.decay_rate <= 0:
                raise ModelError("random_traceclass requires decay_rate > 0")
        lo = 0 if self.kind == "jacobi" else -self.n_half
        for site, _ in self.potential:
            if not lo <= site <= self.n_half:
                raise ModelError(f"potential site {site} outside [{lo}, {self.n_half}]")

    @property
    def dim(self):
        return self.n_half + 1 if self.kind == "jacobi" else 2 * self.n_half + 1

    def site_index(self, site):
        return site if self.kind == "jacobi" else site + self.n_half

    def to_json(self):
        doc = {
            "kind": self.kind,
            "n_half": self.n_half,
            "potential": [[s, v] for s, v in self.potential],
            "decay_rate": self.decay_rate,
            "seed": self.seed,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        for key in ("kind", "n_half"):
            if key not in doc:
                raise ModelError(f"model config lacks {key!r}")
        return cls(
            kind=doc["kind"],
            n_half=int(doc["n_half"]),
            potential=tuple((int(s), float(v)) for s, v in doc.get("potential", ())),
            decay_rate=doc.get("decay_rate"),
            seed=int(doc.get("seed", 0)),
        )


@dataclass(frozen=True)
class OperatorPair:
    """Finite symmetric pair H0, H = H0 + V with V = G^T J G.

    h0 -- the bands of the tridiagonal H0, shape (2, n): the diagonal h0[0]
          and the off-diagonal h0[1, :-1] (h0[1, -1] pads the row).
    v  -- the diagonal of V, shape (n,), for lattice1d and jacobi; the dense
          V for random_traceclass.
    dense(which) forms H0 ('free') or H ('full'), for eig's dense route and tests.
    support() gives the potential's sites and the |V|^{1/2} weights on them.
    """

    h0: np.ndarray
    v: np.ndarray
    g: np.ndarray
    j: np.ndarray
    spec: ModelSpec

    @property
    def k_dim(self):
        return self.g.shape[0]

    def support(self):
        pot = self.spec.potential
        return (np.array([s for s, _ in pot], dtype=int),
                np.sqrt(np.abs(np.array([v for _, v in pot]))))

    def dense(self, which):
        if which not in ("free", "full"):
            raise ModelError(f"unknown operator {which!r}")
        e = self.h0[1, :-1]
        m = np.diag(self.h0[0]) + np.diag(e, 1) + np.diag(e, -1)
        return m + self._dense_v() if which == "full" else m

    def _dense_v(self):
        return np.diag(self.v) if self.v.ndim == 1 else self.v

    def check_factorization(self):
        return float(np.linalg.norm(self.g.T @ self.j @ self.g - self._dense_v(), 2))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Dense eigendecomposition with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_bound: float


def _diag_factorization(v_diag):
    support = np.flatnonzero(v_diag)
    k = len(support)
    n = len(v_diag)
    g = np.zeros((k, n))
    g[np.arange(k), support] = np.sqrt(np.abs(v_diag[support]))
    j = np.diag(np.sign(v_diag[support])) if k else np.zeros((0, 0))
    return g, j


def build_model(spec: ModelSpec) -> OperatorPair:
    """Construct the operator pair for a model specification.

    lattice1d: (H0 u)(x) = u(x+1) + u(x-1) on sites -N..N with Dirichlet
    truncation; V diagonal. jacobi: same hopping on sites 0..N. For both,
    G selects the support rows weighted by |V|^{1/2} and J = sign(V) on the
    support. random_traceclass: V = Q diag(c) Q^T with c_i = (-1)^(i+1) i^(-p)
    and Q a seeded Haar orthogonal matrix; G = |V|^{1/2}, J = sign(V).
    """
    n = spec.dim
    h0 = np.zeros((2, n))
    h0[1, :-1] = 1.0                    # the hopping chain, for every kind
    if spec.kind in ("lattice1d", "jacobi"):
        v = np.zeros(n)
        for site, value in spec.potential:
            v[spec.site_index(site)] = value
        g, j = _diag_factorization(v)
        return OperatorPair(h0=h0, v=v, g=g, j=j, spec=spec)

    # random_traceclass: deterministic eigenvalue sequence, seeded conjugation
    rng = np.random.default_rng(spec.seed)
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    i = np.arange(1, n + 1)
    c = np.where(i % 2 == 1, 1.0, -1.0) * i ** (-spec.decay_rate)
    v = (q * c) @ q.T
    v = (v + v.T) / 2
    g = (q * np.sqrt(np.abs(c))) @ q.T
    g = (g + g.T) / 2
    j = (q * np.sign(c)) @ q.T
    j = (j + j.T) / 2
    return OperatorPair(h0=h0, v=v, g=g, j=j, spec=spec)


def is_tridiagonal(pair: OperatorPair) -> bool:
    return pair.spec.kind in ("lattice1d", "jacobi")


def eigendecompose(m: np.ndarray) -> SpectralDecomposition:
    """Full dense decomposition of a symmetric matrix, with residual report."""
    asym = np.linalg.norm(m - m.T, np.inf)
    if asym > tol.SYMMETRY * max(1.0, np.linalg.norm(m, np.inf)):
        raise ModelError(f"matrix not symmetric (asymmetry {asym:.3e})")
    w, vecs = np.linalg.eigh((m + m.T) / 2)
    resid = np.linalg.norm(m @ vecs - vecs * w)     # Frobenius: bounds the 2-norm, no SVD
    return SpectralDecomposition(eigenvalues=w, eigenvectors=vecs, residual_bound=float(resid))


def eig(pair: OperatorPair, which: str, lo=-np.inf, hi=np.inf,
        closed="neither") -> SpectralDecomposition:
    """Eigenpairs of H0 (which='free') or H ('full') between lo and hi (select_spectrum).

    The one eigensolver of a model pair.  Every solve is whole: tridiagonal
    models by eigh_tridiagonal on the bands of H0 plus the diagonal of V, so
    no dense matrix is formed, dense models by eigendecompose of
    pair.dense(which).  A window is then cut by select_spectrum at the whole
    spectrum's scale; the whole spectrum (the default) is returned unselected.
    """
    from scipy import linalg            # looked up at call time, so it can be swapped

    if which not in ("free", "full"):
        raise ModelError(f"unknown operator {which!r}")
    if is_tridiagonal(pair):
        d, e = pair.h0[0], pair.h0[1, :-1]
        if which == "full":
            d = d + pair.v
        w, vecs = linalg.eigh_tridiagonal(d, e)
        dec = SpectralDecomposition(eigenvalues=w, eigenvectors=vecs, residual_bound=0.0)
    else:
        dec = eigendecompose(pair.dense(which))
    if lo == -np.inf and hi == np.inf:
        return dec
    sel = select_spectrum(dec.eigenvalues, lo, hi, closed)
    return replace(dec, eigenvalues=dec.eigenvalues[sel], eigenvectors=dec.eigenvectors[:, sel])


def eigendecompose_pair(pair: OperatorPair):
    """(H0, H) decompositions of the whole spectra, eig(pair, 'free') and eig(pair, 'full')."""
    return eig(pair, "free"), eig(pair, "full")


def spectral_point_tol(scale: float) -> float:
    """tol.SPECTRAL_POINT_ULPS * eps * scale, for scale = ||M||."""
    return tol.SPECTRAL_POINT_ULPS * float(np.finfo(float).eps) * float(scale)


def snap_to_points(w, points) -> np.ndarray:
    """Copy of the eigenvalues w with those on a spectral point set equal to it.

    w is the whole spectrum of M, and "on" means within spectral_point_tol(max
    |w|) = spectral_point_tol(||M||) of the point.  Infinite points are ignored.
    """
    w = np.array(w, dtype=float)
    atol = spectral_point_tol(float(np.max(np.abs(w))) if w.size else 0.0)
    for p in points:
        if np.isfinite(p):
            w[np.abs(w - p) <= atol] = p
    return w


def select_spectrum(w, lo=-np.inf, hi=np.inf, closed="neither") -> np.ndarray:
    """Boolean mask of the eigenvalues w (a whole spectrum) lying between lo and hi.

    This is the one rule by which eigenvalues are compared with spectral
    points: an eigenvalue on lo or hi (see snap_to_points) is treated as
    equal to it, and closed ('neither', 'left' or 'right') says which
    endpoint, if any, belongs to the set.  The result is the exact-arithmetic
    selection whatever sign roundoff gave an eigenvalue that sits on an
    endpoint.
    """
    if closed not in ("neither", "left", "right"):
        raise ValueError(f"unknown closed={closed!r}")
    w = snap_to_points(w, (lo, hi))
    left = w >= lo if closed == "left" else w > lo
    right = w <= hi if closed == "right" else w < hi
    return left & right


def spectral_block(w, vecs, hi, closed="neither") -> np.ndarray:
    """Prefix view vecs[:, :k] of the eigenvectors for ascending w below hi (select_spectrum)."""
    return vecs[:, :int(np.count_nonzero(select_spectrum(w, hi=hi, closed=closed)))]


def projection_difference(b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """b1 b1^T - b0 b0^T, the projection difference of two orthonormal blocks."""
    d = b1 @ b1.T
    d -= b0 @ b0.T
    return d


def spectral_projection(dec: SpectralDecomposition, lam: float) -> np.ndarray:
    """Projection E(-inf, lam) = sum over eigenvalues strictly below lam.

    "Strictly below" holds in exact arithmetic: an eigenvalue within
    spectral_point_tol (tol.SPECTRAL_POINT_ULPS * eps * ||M||) of lam equals lam
    and is left out, whichever sign its roundoff has (select_spectrum).
    """
    vecs = spectral_block(dec.eigenvalues, dec.eigenvectors, lam)
    return vecs @ vecs.T


def apply_function(dec: SpectralDecomposition, phi) -> np.ndarray:
    """Functional calculus phi(M) = sum phi(lambda_j) v_j v_j^T.

    phi is any callable accepting an ndarray of eigenvalues; PiecewiseFn
    evaluates with its jump-point convention.
    """
    vals = np.asarray(phi(dec.eigenvalues))
    vecs = dec.eigenvectors
    if np.iscomplexobj(vals):
        return (vecs * vals) @ vecs.T.astype(complex)
    return (vecs * vals) @ vecs.T


def matrix_to_csv(m: np.ndarray, path):
    """Row-major CSV export with 17 significant digits (complex as re+imj)."""
    m = np.atleast_2d(m)
    cplx = np.iscomplexobj(m)
    with open(path, "w") as fh:
        for row in m:
            if cplx:
                fh.write(",".join(f"{x.real:.17g}{x.imag:+.17g}j" for x in row))
            else:
                fh.write(",".join(f"{x:.17g}" for x in row))
            fh.write("\n")


def matrix_from_csv(path, dtype=float):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([dtype(tok.strip("()")) for tok in line.split(",")])
    return np.array(rows, dtype=dtype)
