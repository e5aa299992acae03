"""Piecewise-continuous symbols phi and the essential spectrum of phi(H) - phi(H0).

A symbol is a continuous background (vanishing preset) plus a finite list of
step pieces; each jump at lambda_n contributes the segment
[-alpha(lambda_n) kappa_n, +alpha(lambda_n) kappa_n] to the predicted
essential spectrum of the difference phi(H) - phi(H0).  Empirical validation
runs the same truncation ladders as the projection-difference analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import json

import numpy as np
from scipy.sparse.linalg import LinearOperator, svds

from . import tolerances as tol
from .alpha import nearest_distances, transient_filter
from .opcore import (ModelSpec, OperatorPair, apply_function, build_model,
                     eigendecompose_pair, projection_difference, snap_to_points,
                     spectral_block)

_BACKGROUNDS = ("zero", "gaussian_bump", "arctan_step_smoothed")


class SymbolError(ValueError):
    """Invalid piecewise symbol or validation request."""


def _background_fn(name, params):
    if name == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if name == "gaussian_bump":
        amp, center, width = params
        return lambda x: amp * np.exp(-((np.asarray(x, dtype=float) - center) / width) ** 2)
    if name == "arctan_step_smoothed":
        amp, center, width = params
        return lambda x: amp * (0.5 + np.arctan((np.asarray(x, dtype=float) - center) / width) / np.pi)
    raise SymbolError(f"unknown background preset {name!r}")


@dataclass(frozen=True)
class PiecewiseFn:
    """Symbol phi = background + sum of step pieces.

    jumps       -- tuple of (location, left_limit, right_limit); each piece
                   takes the value left_limit for x <= location and
                   right_limit beyond it (left-limit convention at the jump).
                   Applied to an operator (symbol_difference), an eigenvalue
                   within opcore.spectral_point_tol (tol.SPECTRAL_POINT_ULPS * eps
                   * ||M||) of a location equals it and takes left_limit.
    background  -- preset name: zero, gaussian_bump, arctan_step_smoothed.
    background_params -- preset parameters (amplitude, center, width).
    """

    jumps: tuple = ()
    background: str = "zero"
    background_params: tuple = ()

    def __post_init__(self):
        if self.background not in _BACKGROUNDS:
            raise SymbolError(f"unknown background preset {self.background!r}")
        jumps = tuple((float(lam), complex(lo), complex(hi)) for lam, lo, hi in self.jumps)
        locs = [lam for lam, _, _ in jumps]
        if locs != sorted(locs) or len(set(locs)) != len(locs):
            raise SymbolError("jump locations must be strictly increasing")
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "background_params",
                           tuple(float(p) for p in self.background_params))
        # evaluating the presets requires their parameters up front
        _background_fn(self.background, self.background_params)

    @property
    def is_real(self):
        return all(lo.imag == 0.0 and hi.imag == 0.0 for _, lo, hi in self.jumps)

    def kappa(self, lam):
        """Jump right_limit - left_limit at lam (0 if no jump there)."""
        for loc, lo, hi in self.jumps:
            if loc == lam:
                return hi - lo
        return 0j

    def singsupp(self):
        """Locations carrying a nonzero jump."""
        return tuple(loc for loc, lo, hi in self.jumps if hi != lo)

    def scaled(self, c):
        """c * phi, scaling background amplitude and all limits."""
        jumps = tuple((loc, c * lo, c * hi) for loc, lo, hi in self.jumps)
        params = self.background_params
        if self.background != "zero":
            params = (c * params[0],) + params[1:]
        return PiecewiseFn(jumps=jumps, background=self.background,
                           background_params=params)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        vals = _background_fn(self.background, self.background_params)(x).astype(complex)
        for loc, lo, hi in self.jumps:
            vals = vals + np.where(x <= loc, lo, hi)
        if self.is_real:
            return vals.real
        return vals

    def step_pieces(self):
        """One single-jump PiecewiseFn per jump location, background dropped."""
        return tuple(PiecewiseFn(jumps=((loc, lo, hi),)) for loc, lo, hi in self.jumps)

    def to_json(self):
        return json.dumps({
            "jumps": [{"lambda": loc, "left": [lo.real, lo.imag],
                       "right": [hi.real, hi.imag]} for loc, lo, hi in self.jumps],
            "background": {"name": self.background,
                           "params": list(self.background_params)},
        })

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        jumps = tuple((j["lambda"], complex(*j["left"]), complex(*j["right"]))
                      for j in doc.get("jumps", ()))
        bg = doc.get("background", {"name": "zero", "params": []})
        return cls(jumps=jumps, background=bg["name"],
                   background_params=tuple(bg.get("params", ())))


def _direction(w):
    """Canonical representative of the symmetric segment [-w, w]."""
    if w == 0:
        return 0j
    if w.real < 0 or (w.real == 0 and w.imag < 0):
        return -w
    return w


@dataclass(frozen=True)
class SegmentUnion:
    """Union of segments [-w, w] through the origin (w per entry)."""

    endpoints: tuple = ()
    closed: bool = True

    def __post_init__(self):
        kept = []
        for w in sorted((complex(w) for w in self.endpoints), key=abs, reverse=True):
            w = _direction(w)
            if w == 0:
                continue
            u = w / abs(w)
            if not any(abs(v / abs(v) - u) < 1e-14 and abs(v) >= abs(w) for v in kept):
                kept.append(w)
        object.__setattr__(self, "endpoints", tuple(kept))

    @property
    def is_empty(self):
        return not self.endpoints

    def contains_zero(self):
        return not self.is_empty

    def radius(self):
        """Largest |endpoint| (0 for the empty union)."""
        return max((abs(w) for w in self.endpoints), default=0.0)

    def real_interval(self):
        """(-a, a) for a union of real segments."""
        if any(w.imag != 0 for w in self.endpoints):
            raise SymbolError("union has non-real segments")
        a = self.radius()
        return (-a, a)

    def sample(self, per_segment=101):
        """Point cloud covering every segment, for set-distance comparisons."""
        pts = [0.0 + 0j] if self.endpoints else []
        for w in self.endpoints:
            pts.extend(np.linspace(-1.0, 1.0, per_segment) * w)
        return np.array(pts)


def predicted_ess_spectrum(phi: PiecewiseFn, alpha_fn) -> SegmentUnion:
    """Predicted essential spectrum of phi(H) - phi(H0).

    One symmetric segment [-alpha(lam)*kappa, +alpha(lam)*kappa] per jump;
    contained segments merge.  Continuous phi predicts a compact difference
    (empty union).
    """
    endpoints = []
    for loc in phi.singsupp():
        if abs(loc) > 2.0 - tol.BAND_MARGIN:
            raise SymbolError(f"jump at {loc} outside the valid spectral window")
        a = float(alpha_fn(loc))
        endpoints.append(a * phi.kappa(loc))
    return SegmentUnion(endpoints=tuple(endpoints))


def symbol_difference(pair: OperatorPair, phi: PiecewiseFn) -> np.ndarray:
    """Dense phi(H) - phi(H0) by spectral calculus.

    An eigenvalue within opcore.spectral_point_tol (tol.SPECTRAL_POINT_ULPS * eps
    * ||M||) of a jump location counts as equal to it and so takes the
    left limit, whichever sign its roundoff has (opcore.select_spectrum).
    Pure step symbols reduce to differences of eigenvector-block projections
    onto the eigenvalues at most the jump location, which keeps this route
    bit-identical with the projection-difference ladder when the jump
    location misses both spectra.
    """
    return _difference(eigendecompose_pair(pair), phi)


def _difference(decs, phi):
    # symbol_difference from the (H0, H) decompositions, which serve every symbol of a rung
    dec0, dec1 = decs
    if phi.background == "zero" and phi.jumps:
        acc = None
        for loc, lo, hi in phi.jumps:
            kappa = hi - lo
            b0, b1 = (spectral_block(dec.eigenvalues, dec.eigenvectors, loc, closed="right")
                      for dec in (dec0, dec1))
            m = projection_difference(b0, b1)
            if kappa.imag != 0:
                m = m * (-kappa)
            elif kappa != -1.0:
                m *= -kappa.real
            acc = m if acc is None else acc + m
        return acc
    locs = [loc for loc, _, _ in phi.jumps]
    dec0, dec1 = (replace(dec, eigenvalues=snap_to_points(dec.eigenvalues, locs))
                  for dec in (dec0, dec1))
    return apply_function(dec1, phi) - apply_function(dec0, phi)


def empirical_spectrum(spec: ModelSpec, phi: PiecewiseFn, n_list) -> dict:
    """Per-truncation eigenvalue clouds of phi(H) - phi(H0).

    Returns clouds, the transient-filtered largest cloud, and the count of
    eigenvalues beyond 0.1 per rung (the compactness fingerprint for
    continuous phi).
    """
    return _spectra(spec, (phi,), n_list)[0]


def _spectra(spec, phis, n_list):
    # empirical_spectrum for every symbol of phis, from one decomposition per rung
    if not all(phi.is_real for phi in phis):
        raise SymbolError("complex symbols excluded from empirical validation "
                          "(difference non-normal; finite-section spectra unreliable)")
    n_list = tuple(int(n) for n in n_list)
    if not n_list or list(n_list) != sorted(n_list):
        raise SymbolError("n_list must be ascending and non-empty")
    clouds = [[] for _ in phis]
    for n in n_list:
        decs = eigendecompose_pair(build_model(replace(spec, n_half=n)))
        for c, phi in zip(clouds, phis):
            c.append(np.linalg.eigvalsh(_difference(decs, phi)))
    return tuple({"n_list": n_list, "clouds": tuple(c),
                  "filtered": transient_filter(c[-1], c[-2]) if len(c) >= 2 else c[-1],
                  "big_counts": tuple(int(np.sum(np.abs(x) > 0.1)) for x in c)}
                 for c in clouds)


def accumulation_set(cloud, prev_cloud):
    """Cloud points reproduced within tol.ACCUMULATION at the previous ladder rung."""
    return transient_filter(cloud, prev_cloud, move_tol=tol.ACCUMULATION)


def hausdorff(a, b):
    """Hausdorff distance between two finite point sets (inf for one empty)."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return np.inf
    if not (a.imag.any() or b.imag.any()):     # sorted search: |x - y| == abs(complex(x - y, 0))
        a, b = np.sort(a.real), np.sort(b.real)
        return float(max(nearest_distances(a, b).max(), nearest_distances(b, a).max()))
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _leading_singvals(m, count):
    if min(m.shape) <= max(3 * count, 60):
        return np.linalg.svd(m, compute_uv=False)[:count]
    s = svds(m, k=count, v0=np.full(m.shape[1], 1.0 / np.sqrt(m.shape[1])),
             return_singular_vectors=False)
    return np.sort(s)[::-1]


def cross_term_compactness(spec: ModelSpec, phi1: PiecewiseFn, phi2: PiecewiseFn,
                           n_list, sv_index=20) -> dict:
    """Decay of the cross term phi-difference product along a truncation ladder.

    When the two symbols jump at disjoint locations the product of the two
    differences is compact, so its sv_index-th singular value must decay as
    the truncation grows; the report carries the per-rung leading singular
    values and the decay verdict.
    """
    overlap = set(phi1.singsupp()) & set(phi2.singsupp())
    if overlap:
        raise SymbolError(f"symbols share jump locations {sorted(overlap)}")
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 2:
        raise SymbolError("need at least 2 ladder rungs")
    rows = []
    for n in n_list:
        decs = eigendecompose_pair(build_model(replace(spec, n_half=n)))
        d1, d2 = _difference(decs, phi1), _difference(decs, phi2)
        dim = d1.shape[0]
        op = LinearOperator((dim, dim),
                            matvec=lambda x, a=d1, b=d2: a @ (b @ x),
                            rmatvec=lambda x, a=d1, b=d2: b.T @ (a.T @ x))
        sv = _leading_singvals(op if dim > 400 else d1 @ d2, sv_index + 3)
        rows.append(np.asarray(sv))
    tracked = [float(r[sv_index - 1]) for r in rows]
    return {"n_list": n_list, "singular_values": tuple(rows),
            "tracked_index": sv_index, "tracked_values": tuple(tracked),
            "decaying": bool(tracked[-1] < tracked[0])}


def union_formula_check(spec: ModelSpec, phi: PiecewiseFn, n_list) -> dict:
    """Accumulation set of the summed difference vs the union over step pieces.

    Decomposes phi into its single-jump pieces, ladders the sum and every
    piece from one decomposition per rung, and returns the Hausdorff distance
    between the accumulation set of the sum and the union of per-piece
    accumulation sets with 0 adjoined.
    """
    pieces = phi.step_pieces()
    if not pieces:
        raise SymbolError("symbol has no jumps to decompose")
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 2:
        raise SymbolError("need at least 2 ladder rungs")
    results = _spectra(spec, (PiecewiseFn(jumps=phi.jumps),) + pieces, n_list)
    sum_acc, *piece_results = (accumulation_set(r["clouds"][-1], r["clouds"][-2]) for r in results)
    union_pts = np.array(sorted(set([0.0] + [x for acc in piece_results for x in acc.tolist()])))
    sum_pts = np.concatenate([sum_acc, [0.0]]) if sum_acc.size else np.array([0.0])
    return {"distance": hausdorff(sum_pts, union_pts),
            "sum_accumulation": sum_acc,
            "piece_accumulations": tuple(piece_results)}
