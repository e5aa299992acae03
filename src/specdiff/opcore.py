"""Model operator pairs, factorizations, and finite-dimensional functional calculus.

Builds the finite truncations of the perturbed/unperturbed pair (H0, H), H0
stored as its bands, with the factorization V = G^T J G, and provides the one
eigensolver of a pair (eig, which takes H0's eigenpairs in closed form from
hopping_eigenpairs and solves only H), the one closed form of H0's spectrum
(hopping_eigenvalues), the one band rule (in_band), the two singular-value
routines (leading_singvals for the top value, by the dense SVD at every size,
_floor_singvals for every value above a floor, from the certified range basis
of _floor_basis, one growth rule with no options), spectral projections and
functions of operators phi(H).  An eigenvalue meets a spectral point by one
rule, which gives open windows (select_spectrum) and strict prefixes
(count_below); a symbol's left limit at a jump is PiecewiseFn.on_spectrum's.  A
ladder rung (Rung) holds a pair in H0's eigenbasis: both spectra, the overlap
W = Phi^T Psi of the eigenvectors and G Phi.  Its one cloud method, cloud(f),
gives the eigenvalues of f(H) - f(H0) for f, a map from an ascending whole
spectrum to a symbol's values, and chooses its kernel from those values: a
step's from two cross blocks of W, any other f's from a basis of M = W o
(f(mu)^T - f(lambda)) (mixed, symbol_factor), each certified to
tol.CLOUD_FLOOR.  The rung reads no symbol; the convention at a jump is
f's.  ladder_rung is the one place that chooses a rung's route, by one rule on
the pair (one_site_at_origin): the even sector of a one-site V at lattice1d
site 0 (even_sector: eigenvalues only, and W as a Cauchy matrix), or H0's
closed form and one solve of H, with W and G Phi as sine transforms.  The two
whole decompositions, eig(pair, 'free') and eig(pair, 'full'), stay the
oracle.  Its thresholds are read from specdiff.tolerances.  Every dense product
and factorization goes through NumPy's BLAS; SciPy, which bundles a second
OpenBLAS with its own thread pool, serves only the tridiagonal solves
(eigh_tridiagonal, driver stevd) and the sine transform (fft.dst).  A model's
JSON object is its dataclass: ModelSpec's fields are its keys, those with no
default required, and to_json writes asdict; _checked_object, the one check of
a config object, serves the symbol (pcfunc) and the experiment config
(harness) too.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import tolerances as tol

_KINDS = ("lattice1d", "jacobi", "random_traceclass")


class ModelError(ValueError):
    """Invalid model specification."""


def _checked_int(value, name, error=ModelError) -> int:
    """value as an int; error naming the field unless it is an integral number (not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def _checked_float(value, name, error=ModelError) -> float:
    """value as a float; error naming the field unless it is a real number (not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise error(f"{name} must be a number, got {value!r}")


def _checked_list(value, name, error=ModelError) -> tuple:
    """value as a tuple; error naming the field unless it is a list (a JSON array) or a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise error(f"{name} must be a list, got {type(value).__name__}")


def _checked_object(doc, known, what, error=ModelError, required=()) -> dict:
    """doc if it is a JSON object with keys only from known and every key of required, else
    error naming what or the key."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in known:
            raise error(f"unknown {what} key {key!r}")
    for key in required:
        if key not in doc:
            raise error(f"{what} lacks key {key!r}")
    return doc


def _required(cls):
    # the fields of a dataclass that have no default: the keys its JSON object must have
    return [f.name for f in fields(cls) if f.default is MISSING]


def _canonical_potential(potential):
    items = []
    for pair in _checked_list(potential, "potential"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ModelError(f"potential entries must be [site, value] pairs, got {pair!r}")
        site = _checked_int(pair[0], "potential site")
        value = _checked_float(pair[1], "potential value")
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
        object.__setattr__(self, "n_half", _checked_int(self.n_half, "n_half"))
        object.__setattr__(self, "seed", _checked_int(self.seed, "seed"))
        if self.n_half < 1:
            raise ModelError("n_half must be >= 1")
        object.__setattr__(self, "potential", _canonical_potential(self.potential))
        if self.decay_rate is not None:
            object.__setattr__(self, "decay_rate", _checked_float(self.decay_rate, "decay_rate"))
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
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text):
        """The spec of a JSON object whose keys are the fields, those with no default required."""
        return cls(**_checked_object(json.loads(text), [f.name for f in fields(cls)], "model",
                                     required=_required(cls)))


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
        support = np.flatnonzero(v)
        g = np.zeros((support.size, n))
        g[np.arange(support.size), support] = np.sqrt(np.abs(v[support]))
        return OperatorPair(h0=h0, v=v, g=g, j=np.diag(np.sign(v[support])), spec=spec)

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


def in_band(lam) -> bool:
    """|lambda| < 2 - tol.BAND_MARGIN: inside the band (-2, 2) of H0, where S(lambda) exists.

    Elementwise for an array of lambda.
    """
    return abs(lam) < 2.0 - tol.BAND_MARGIN


def near_band_edge(lam) -> bool:
    """Whether a real lambda lies within tol.BAND_MARGIN of a band edge +-2, on either side.

    Elementwise for an array of lambda.
    """
    return np.logical_not(in_band(lam)) & (abs(lam) <= 2.0 + tol.BAND_MARGIN)


def first_true(mask):
    """Index of the first true entry of a boolean scalar or array, or None.

    The functions that take a lambda batch check every point at once and raise
    with the message of the first point that fails.
    """
    hit = np.flatnonzero(mask)
    return int(hit[0]) if hit.size else None


def unbatch(x):
    """A result without a batch axis as a Python scalar; one with a batch axis unchanged."""
    return x.item() if np.ndim(x) == 0 else x


def eigendecompose(m: np.ndarray) -> SpectralDecomposition:
    """Full dense decomposition of a symmetric matrix."""
    asym = np.linalg.norm(m - m.T, np.inf)
    if asym > tol.SYMMETRY * max(1.0, np.linalg.norm(m, np.inf)):
        raise ModelError(f"matrix not symmetric (asymmetry {asym:.3e})")
    w, vecs = np.linalg.eigh((m + m.T) / 2)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=vecs)


def hopping_eigenvalues(n: int, stride: int = 1) -> np.ndarray:
    """Eigenvalues 2 cos(pi k / m) of the n-site hopping chain, m = n + 1, ascending: every
    stride-th k from k = n down.

    Each is a sine of an argument in [-pi/2, pi/2], so 2k = m gives an exact 0 and the
    eigenvalues come in exact +- pairs.  The one closed form of H0's spectrum: for the
    whole chain (hopping_eigenpairs, ladder_rung) and its even sector (hopping_even_sector).
    """
    m = n + 1
    k = np.arange(n, 0, -stride)
    return 2.0 * np.sin(np.pi * (m - 2 * k) / (2 * m))


def hopping_eigenpairs(n: int) -> SpectralDecomposition:
    """Closed-form eigenpairs of the n-site hopping chain H0 (Dirichlet ends), ascending.

    With m = n + 1 the eigenvalues are 2 cos(pi k / m) and the eigenvectors
    sqrt(2/m) sin(pi k x / m), x = 1..n.  Both are evaluated as sines of
    arguments in [0, pi/2] (k x reduced mod 2m in integers first), so exact
    zeros come out as 0 and eigenvalues in +- pairs are exact negatives.  The
    eigenvectors are Fortran-ordered, like a LAPACK solve's, so that prefix
    blocks V[:, :k] are contiguous.
    """
    m = n + 1
    r = np.arange(m)
    half = np.sqrt(2.0 / m) * np.sin(np.pi * np.minimum(r, m - r) / m)
    table = np.concatenate([half, -half])                           # sin(pi r / m), r < 2m
    k = np.arange(n, 0, -1)
    x = np.arange(1, n + 1)
    rows = np.empty((n, n))
    for start in range(0, n, 256):                                  # bounded integer scratch
        rows[start:start + 256] = table[np.outer(k[start:start + 256], x) % (2 * m)]
    return SpectralDecomposition(eigenvalues=hopping_eigenvalues(n), eigenvectors=rows.T)


def hopping_even_sector(n_half: int):
    """H0's eigenvalues, ascending, and |phi_k(0)| on the even sector of the lattice1d chain.

    The (2N+1)-site chain (sites -N..N, m = 2N + 2) has phi_k(0) = sqrt(2/m)
    sin(pi k / 2): the N + 1 eigenvectors of odd k do not vanish at site 0,
    and all have |phi_k(0)| = sqrt(2/m).  Their eigenvalues are those of
    hopping_eigenpairs(2N + 1) at its even ascending indices, with the same bits.
    """
    m = 2 * n_half + 2
    return hopping_eigenvalues(m - 1, 2), np.full(n_half + 1, np.sqrt(2.0 / m))


def eig(pair: OperatorPair, which: str, lo=-np.inf, hi=np.inf) -> SpectralDecomposition:
    """Eigenpairs of H0 (which='free') or H ('full') strictly between lo and hi (select_spectrum).

    The one eigensolver of a model pair.  H0 is the hopping chain for every
    kind, so its eigenpairs come in closed form (hopping_eigenpairs), as do
    H's when V = 0.  Every solve of H is whole: tridiagonal models by
    eigh_tridiagonal on the bands of H0 plus the diagonal of V, so no dense
    matrix is formed, dense models by eigendecompose of pair.dense('full').
    The tridiagonal driver is pinned to divide and conquer (stevd), whose
    eigenvectors are orthonormal to about 1e-14; MRRR (stemr, the 'auto' of
    older SciPy) left a defect of 2.1e-12 at n = 4001, above tol.CLOUD_FLOOR.
    The open window is then cut by select_spectrum at the whole spectrum's
    scale; the whole spectrum (the default) is returned unselected.
    """
    from scipy import linalg            # looked up at call time, so it can be swapped

    if which not in ("free", "full"):
        raise ModelError(f"unknown operator {which!r}")
    if which == "free" or not pair.v.any():
        dec = hopping_eigenpairs(pair.h0.shape[1])
    elif pair.v.ndim == 1:              # the diagonal V of lattice1d and jacobi
        w, vecs = linalg.eigh_tridiagonal(pair.h0[0] + pair.v, pair.h0[1, :-1],
                                          lapack_driver="stevd")
        dec = SpectralDecomposition(eigenvalues=w, eigenvectors=vecs)
    else:
        dec = eigendecompose(pair.dense(which))
    if lo == -np.inf and hi == np.inf:
        return dec
    sel = select_spectrum(dec.eigenvalues, lo, hi)
    return replace(dec, eigenvalues=dec.eigenvalues[sel], eigenvectors=dec.eigenvectors[:, sel])


@dataclass(frozen=True)
class Rung:
    """The spectral data of one ladder rung (ladder_rung), in H0's eigenbasis phi_k.

    free    -- H0's eigenvalues lambda_k, ascending
    full    -- H's eigenvalues mu_j, ascending
    overlap -- W = Phi^T Psi: column j is H's eigenvector psi_j in the phi_k basis
    g_free  -- G Phi: G times H0's eigenvectors, one column per lambda_k
    dim     -- the size of the whole space; rows past W's size stand for common
               eigenvectors of H0 and H, which add zeros to every difference
    """

    free: np.ndarray
    full: np.ndarray
    overlap: np.ndarray
    g_free: np.ndarray
    dim: int

    def cloud(self, f):
        """Ascending eigenvalues of f(H) - f(H0), dim of them, each within tol.CLOUD_FLOOR.

        f maps an ascending whole spectrum to the symbol's values, which choose the
        kernel.  If they are a on the first k0 and k1 eigenvalues and b on the rest
        (_one_step), D = (a - b)(E - E0) splits into principal angles (Halmos' two
        subspaces): (a - b) times +sigma(W[k0:, :k1]) and -sigma(W[:k0, k1:]), each
        exact to the floor (_floor_singvals), the +-1 values measured, not set.  Any
        other f takes (Q, B) = symbol_factor(f): ||D - P D P||_2 <= 2 ||(I - P) D||_F
        <= tol.CLOUD_FLOOR for P = Q Q^T, so by Weyl's inequality the eigenvalues of
        Q^T D Q = B Q are each within the floor of D's.  Zeros pad both to dim.
        """
        step = _one_step(np.asarray(f(self.free)), np.asarray(f(self.full)))
        if step is not None:
            a, b, k0, k1 = step
            plus = _floor_singvals(self.overlap[k0:, :k1])
            minus = _floor_singvals(self.overlap[:k0, k1:])
            out = (a - b) * np.concatenate([-minus, np.zeros(self.dim - plus.size - minus.size),
                                            plus[::-1]])
            return out if a >= b else out[::-1]     # reversed, not sorted: zeros keep their sign
        q, b = self.symbol_factor(f)
        core = b if q is None else b @ q
        w = np.linalg.eigvalsh(0.5 * (core + core.T))
        return np.sort(np.concatenate([w, np.zeros(self.dim - w.size)]))

    def mixed(self, f):
        """M = W o (f(mu)^T - f(lambda)): f(H) - f(H0) = M W^T in the rung basis.

        f maps an ascending whole spectrum to the symbol's values (cloud).  W
        diagonalises H in H0's eigenbasis, so f(H) - f(H0) = W f(mu) W^T - f(lambda)
        = (W f(mu) - f(lambda) W) W^T, the double operator integral of Birman and
        Solomyak, and M is one elementwise product, Fortran-ordered for _floor_basis
        to overwrite.
        """
        m = np.subtract(f(self.full), f(self.free)[:, None],
                        out=np.empty(self.overlap.shape, order="F"))
        m *= self.overlap
        return m

    def symbol_factor(self, f):
        """(Q, B) with ||f(H) - f(H0) - Q B||_F <= tol.CLOUD_FLOOR / 2, Q orthonormal.

        In the rung basis D = f(H) - f(H0) = M W^T (mixed), numerically of low
        rank.  Q is a range basis of M (_floor_basis, which overwrites M) and
        B = (Q^T M) W^T; W is orthogonal, so ||D - Q B||_F = ||M - Q Q^T M||_F.
        Where the basis does not pay, on a rung of at most 600 rows or a
        full-rank M, Q is None and B is D.  The phi workload has rungs on both
        sides of that size: on its two-site rungs (basis width 160, 2 BLAS
        threads) a cloud took 18-24 ms dense against 31-35 ms by the basis at
        501 rows, and 86-102 against 62-74 ms at 1001.
        """
        if self.overlap.shape[0] > 600:
            basis = _floor_basis(self.mixed(f), tol.CLOUD_FLOOR / 2)
            if basis is not None:
                return basis[0], basis[1] @ self.overlap.T
        return None, self.mixed(f) @ self.overlap.T


def _one_step(v0, v1):
    # (a, b, k0, k1) when the values v0 on H0's spectrum and v1 on H's are a on their first k0
    # and k1 entries and b on the rest, else None; constant values give a = b
    vals = np.unique(np.concatenate([v0, v1]))
    if vals.size > 2:
        return None
    for a, b in ((vals[0], vals[-1]), (vals[-1], vals[0])):
        k0, k1 = np.count_nonzero(v0 == a), np.count_nonzero(v1 == a)
        if (v0[:k0] == a).all() and (v1[:k1] == a).all():
            return a, b, k0, k1
    return None


def one_site_at_origin(pair: OperatorPair) -> bool:
    """Whether V is one site at lattice1d site 0: the rule by which a rung takes the even sector."""
    pot = pair.spec.potential
    return pair.spec.kind == "lattice1d" and len(pot) == 1 and pot[0][0] == 0


def ladder_rung(pair: OperatorPair) -> Rung:
    """The Rung of a pair, and the one place that chooses its route.

    A one-site V at lattice1d site 0 (one_site_at_origin) takes even_sector.
    Every other pair takes H0's closed form (hopping_eigenvalues) and one solve
    of H (eig), and never forms H0's eigenvectors Phi: W = Phi^T Psi and
    (G Phi)^T = Phi^T G^T are sine transforms (_sine_coefficients), W in place
    on Psi.  V = 0 gives W = I, so that every cloud is exact zeros.
    """
    if one_site_at_origin(pair):
        return even_sector(pair)
    free = hopping_eigenvalues(pair.spec.dim)
    g_free = _sine_coefficients(pair.g.T.copy(order="F")).T
    if not pair.v.any():
        return Rung(free=free, full=free, overlap=np.eye(free.size), g_free=g_free,
                    dim=pair.spec.dim)
    full = eig(pair, "full")
    return Rung(free=free, full=full.eigenvalues, overlap=_sine_coefficients(full.eigenvectors),
                g_free=g_free, dim=pair.spec.dim)


def _sine_coefficients(x):
    # Phi^T x for H0's ascending eigenvectors Phi (hopping_eigenpairs), in place on x.  Column
    # i of Phi is s_x sqrt(2/m) sin(pi (i + 1) x / m) with s_x = (-1)^(x+1), x = 1..n, so
    # Phi^T x is the orthonormal DST-I of s o x, its rows already in ascending order
    from scipy import fft               # looked up at call time, so it can be swapped

    x[1::2] *= -1.0
    return fft.dst(x, type=1, norm="ortho", axis=0, overwrite_x=True)


def even_sector(pair: OperatorPair) -> Rung:
    """The Rung of a one-site V = v at lattice1d site 0 on its even sector, from eigenvalues alone.

    The reflection x -> -x splits R^(2N+1): V vanishes on the odd vectors, so
    they are common eigenvectors of H0 and H and add nothing to a difference.
    On the even sector H0 has the closed form of hopping_even_sector, and H =
    Lambda + v z z^T in H0's eigenbasis (z_k = |phi_k(0)|, each phi_k signed so
    that phi_k(0) > 0), whose eigenvalues mu_j come from one eigvals_only solve
    of the half chain on sites 0..N (sqrt 2 on the first bond, v at site 0),
    by eig's driver.
    Its eigenvectors are the columns of the Cauchy matrix W_kj = zh_k /
    (lambda_k - mu_j), normalised, with the Loewner weights zh_k^2 = prod_j
    (mu_j - lambda_k) / (v prod_{i != k} (lambda_i - lambda_k)), summed in logs,
    for which the computed mu_j are exact (Gu & Eisenstat, SIAM J. Matrix Anal.
    Appl. 15, 1994): W is orthogonal to working accuracy, and the D^2 residual
    of a ladder measures its defect.  G Phi is sqrt|v| z.  H0's sector spectrum
    is taken antisymmetric, (lambda - lambda[::-1]) / 2, which keeps the closed
    form's bits and its exact 0 (even N) whatever roundoff that eigenvalue is
    given, so W does not depend on it either.
    """
    from scipy import linalg            # looked up at call time, so it can be swapped

    n_half, ((_, v),) = pair.spec.n_half, pair.spec.potential
    lam, z = hopping_even_sector(n_half)
    lam = 0.5 * (lam - lam[::-1])
    diag = np.zeros(n_half + 1)
    diag[0] = v
    off = np.ones(n_half)
    off[0] = np.sqrt(2.0)
    mu = linalg.eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stevd")
    zhat = np.exp(0.5 * (_log_gaps(lam, mu) - _log_gaps(lam, lam) - np.log(abs(v))))
    w = np.empty((lam.size, mu.size), order="F")
    np.subtract.outer(lam, mu, out=w)
    np.divide(zhat[:, None], w, out=w)
    w /= np.sqrt(np.einsum("kj,kj->j", w, w))
    return Rung(free=lam, full=mu, overlap=w, g_free=np.sqrt(abs(v)) * z[None, :],
                dim=pair.spec.dim)


def _log_gaps(x, y):
    # sum over j of log|x_i - y_j|, leaving out the zero gaps x_i = y_i when y is x; 256 rows at a time
    out = np.empty(x.size)
    for start in range(0, x.size, 256):
        gaps = np.abs(np.subtract.outer(x[start:start + 256], y))
        if y is x:
            i = np.arange(gaps.shape[0])
            gaps[i, start + i] = 1.0
        out[start:start + 256] = np.log(gaps).sum(axis=1)
    return out


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


def select_spectrum(w, lo=-np.inf, hi=np.inf) -> np.ndarray:
    """Boolean mask of the eigenvalues w (a whole spectrum) in the open window (lo, hi).

    This is the one rule by which eigenvalues are compared with spectral
    points: an eigenvalue on lo or hi (see snap_to_points) is treated as
    equal to it, and so lies outside the window, whatever sign roundoff gave
    it.  A half-open window [a, b) of an ascending w is the prefix below b less
    the prefix below a (count_below).
    """
    w = snap_to_points(w, (lo, hi))
    return (w > lo) & (w < hi)


def count_below(w, hi) -> int:
    """Size of the prefix of an ascending whole spectrum w strictly below hi (select_spectrum)."""
    return int(np.count_nonzero(select_spectrum(w, hi=hi)))


def spectral_projection(dec: SpectralDecomposition, lam: float) -> np.ndarray:
    """Projection E(-inf, lam) = sum over eigenvalues strictly below lam.

    "Strictly below" holds in exact arithmetic: an eigenvalue within
    spectral_point_tol (tol.SPECTRAL_POINT_ULPS * eps * ||M||) of lam equals lam
    and is left out, whichever sign its roundoff has (select_spectrum).
    """
    vecs = dec.eigenvectors[:, :count_below(dec.eigenvalues, lam)]
    return vecs @ vecs.T


def apply_function(dec: SpectralDecomposition, phi) -> np.ndarray:
    """Functional calculus phi(M) = sum phi(lambda_j) v_j v_j^T.

    phi maps the ascending whole spectrum to its values there, so the
    convention at a spectral point is phi's own (PiecewiseFn.on_spectrum).
    """
    vecs = dec.eigenvectors
    return (vecs * np.asarray(phi(dec.eigenvalues))) @ vecs.T


def leading_singvals(a) -> float:
    """The largest singular value of a by the dense SVD, at every size; 0.0 for an empty a."""
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def _floor_basis(a, floor):
    """(Q, Q^T a) for an orthonormal Q with ||a - Q Q^T a||_F <= floor, or None; a is overwritten.

    A range basis Q grows from a fixed-seed Gaussian block of 32 columns by 64
    columns a block (Halko, Martinsson & Tropp, SIAM Review 53, 2011), with no
    power step, keeping its columns while it fails.  Once it would reach half
    the shorter side the answer is None and the caller takes its dense route,
    so small and full-rank matrices keep its bits.  The residual is updated in a
    itself (a float array the caller gives up, best Fortran-ordered), 256
    columns at a time through NumPy's BLAS, so no second matrix of a's size is
    allocated.
    """
    rng = np.random.default_rng(0)
    q, rows, width = np.empty((a.shape[0], 0)), [], 32
    while 2 * width < min(a.shape):
        y = np.linalg.qr(a @ rng.standard_normal((a.shape[1], width - q.shape[1])))[0]
        y = np.linalg.qr(y - q @ (q.T @ y))[0]
        rows.append(y.T @ a)
        for start in range(0, a.shape[1], 256):     # a -= y rows[-1], in bounded column blocks
            a[:, start:start + 256] -= y @ rows[-1][:, start:start + 256]
        q = np.hstack([q, y])
        if np.linalg.norm(a) <= floor:
            return q, np.vstack(rows)
        width += 64
    return None


def _floor_singvals(a) -> np.ndarray:
    """All min(a.shape) singular values of a, descending, each within tol.CLOUD_FLOOR of exact.

    With Q from _floor_basis on a Fortran copy of a (a step's cross blocks are
    views of the rung's W, which every lambda reads again), sigma(Q^T a), padded
    with zeros, is within tol.CLOUD_FLOOR of sigma(a) by Weyl's inequality: a
    certificate, not a probability.  Where the basis does not pay the dense
    SVD serves, so small and full-rank matrices get its bits.
    """
    basis = _floor_basis(np.array(a, order="F"), tol.CLOUD_FLOOR)
    if basis is None:
        return np.linalg.svd(a, compute_uv=False)
    s = np.linalg.svd(basis[1], compute_uv=False)
    return np.concatenate([s, np.zeros(min(a.shape) - s.size)])
