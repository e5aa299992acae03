"""Piecewise-continuous symbols phi and the essential spectrum of phi(H) - phi(H0).

A symbol is a continuous background (vanishing preset) plus a finite list of
step pieces; each jump at lambda_n contributes the segment
[-alpha(lambda_n) kappa_n, +alpha(lambda_n) kappa_n] to the predicted
essential spectrum of the difference phi(H) - phi(H0).  Empirical validation
runs the same truncation ladders as the projection-difference analysis, and
reads only the rung (opcore.ladder_rung): clouds from Rung.cloud, the cross
term from Rung.symbol_factor and Rung.mixed, each given the symbol's values on
a spectrum (PiecewiseFn.on_spectrum, the one place where a jump's left limit
meets a spectrum).  The rung's kernels are certified to tol.CLOUD_FLOOR, so no
ladder forms an n x n difference past the small-rung dense route.
symbol_difference stays the dense site-basis oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import json
import numbers

import numpy as np

from . import tolerances as tol
from .alpha import nearest_distances, transient_filter
from .opcore import (ModelSpec, OperatorPair, _checked_float, _checked_int, _checked_list,
                     _checked_object, apply_function, build_model, eig, in_band, ladder_rung,
                     snap_to_points)

_BACKGROUNDS = ("zero", "gaussian_bump", "arctan_step_smoothed")


class SymbolError(ValueError):
    """Invalid piecewise symbol or validation request."""


def _background_fn(name, params):
    if name == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if len(params) != 3:
        raise SymbolError(f"background {name!r} takes 3 parameters (amplitude, center, width), "
                          f"got {len(params)}")
    if name == "gaussian_bump":
        amp, center, width = params
        return lambda x: amp * np.exp(-((np.asarray(x, dtype=float) - center) / width) ** 2)
    if name == "arctan_step_smoothed":
        amp, center, width = params
        return lambda x: amp * (0.5 + np.arctan((np.asarray(x, dtype=float) - center) / width) / np.pi)
    raise SymbolError(f"unknown background preset {name!r}")


def _checked_limit(value, name):
    # a jump limit as a complex number; SymbolError naming the field unless it is a number
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        return complex(value)
    raise SymbolError(f"{name} must be a number, got {value!r}")


def _limit_from_json(value, name):
    # the [real, imag] pair that to_json writes for a jump limit, as a complex number
    if not isinstance(value, list) or not 1 <= len(value) <= 2:
        raise SymbolError(f"{name} must be a [real, imag] pair, got {value!r}")
    return complex(*(_checked_float(x, name, SymbolError) for x in value))


@dataclass(frozen=True)
class PiecewiseFn:
    """Symbol phi = background + sum of step pieces.

    jumps       -- tuple of (location, left_limit, right_limit); each piece
                   takes the value left_limit for x <= location and
                   right_limit beyond it (left-limit convention at the jump).
                   On a spectrum (on_spectrum), an eigenvalue within
                   opcore.spectral_point_tol (tol.SPECTRAL_POINT_ULPS * eps
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
        jumps = []
        for jump in _checked_list(self.jumps, "jumps", SymbolError):
            if len(_checked_list(jump, "jump", SymbolError)) != 3:
                raise SymbolError(f"jump must be (location, left limit, right limit), got {jump!r}")
            lam, lo, hi = jump
            jumps.append((_checked_float(lam, "jump location", SymbolError),
                          _checked_limit(lo, "jump left limit"),
                          _checked_limit(hi, "jump right limit")))
        locs = [lam for lam, _, _ in jumps]
        if locs != sorted(locs) or len(set(locs)) != len(locs):
            raise SymbolError("jump locations must be strictly increasing")
        object.__setattr__(self, "jumps", tuple(jumps))
        object.__setattr__(self, "background_params",
                           tuple(_checked_float(p, "background parameter", SymbolError)
                                 for p in _checked_list(self.background_params,
                                                        "background params", SymbolError)))
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

    def on_spectrum(self, w):
        """phi on a whole spectrum w, an eigenvalue on a jump (snap_to_points) taking left_limit."""
        return self(snap_to_points(w, [loc for loc, _, _ in self.jumps]))

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
        doc = _checked_object(json.loads(text), ("jumps", "background"), "symbol", SymbolError)
        keys = ("lambda", "left", "right")
        jumps = [_checked_object(j, keys, "jump", SymbolError, required=keys)
                 for j in _checked_list(doc.get("jumps", ()), "jumps", SymbolError)]
        jumps = tuple((j["lambda"], _limit_from_json(j["left"], "jump left limit"),
                       _limit_from_json(j["right"], "jump right limit")) for j in jumps)
        bg = _checked_object(doc.get("background", {"name": "zero", "params": []}),
                             ("name", "params"), "background", SymbolError, required=("name",))
        return cls(jumps=jumps, background=bg["name"], background_params=bg.get("params", ()))


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

    def __post_init__(self):
        kept = []
        for w in sorted((complex(w) for w in self.endpoints), key=abs, reverse=True):
            w = _direction(w)
            if w == 0:
                continue
            u = w / abs(w)
            if not any(abs(v / abs(v) - u) < tol.DIRECTION_MERGE and abs(v) >= abs(w)
                       for v in kept):
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

    def sample(self):
        """Point cloud covering every segment (101 points each), for set-distance comparisons."""
        pts = [0.0 + 0j] if self.endpoints else []
        for w in self.endpoints:
            pts.extend(np.linspace(-1.0, 1.0, 101) * w)
        return np.array(pts)


def predicted_ess_spectrum(phi: PiecewiseFn, alpha_fn) -> SegmentUnion:
    """Predicted essential spectrum of phi(H) - phi(H0).

    One symmetric segment [-alpha(lam)*kappa, +alpha(lam)*kappa] per jump;
    contained segments merge.  Continuous phi predicts a compact difference
    (empty union).
    """
    endpoints = []
    for loc in phi.singsupp():
        if not in_band(loc):
            raise SymbolError(f"jump at {loc} outside the valid spectral window")
        a = float(alpha_fn(loc))
        endpoints.append(a * phi.kappa(loc))
    return SegmentUnion(endpoints=tuple(endpoints))


def symbol_difference(pair: OperatorPair, phi: PiecewiseFn) -> np.ndarray:
    """Dense phi(H) - phi(H0) by spectral calculus.

    An eigenvalue on a jump location takes the left limit, whichever sign its
    roundoff has (PiecewiseFn.on_spectrum).  Pure step symbols reduce to
    differences of eigenvector-block projections, each block as wide as the
    indicator of (-inf, jump] counts on the spectrum.  This is the dense oracle,
    formed in the site basis from both whole decompositions (opcore.eig); the
    ladders (empirical_spectrum, cross_term_compactness) read the rung instead.
    """
    dec0, dec1 = eig(pair, "free"), eig(pair, "full")
    if phi.background == "zero" and phi.jumps:
        acc = None
        for loc, lo, hi in phi.jumps:
            kappa = hi - lo
            at_most = PiecewiseFn(jumps=((loc, 1.0, 0.0),)).on_spectrum
            b0, b1 = (dec.eigenvectors[:, :int(at_most(dec.eigenvalues).sum())]
                      for dec in (dec0, dec1))
            m = b1 @ b1.T
            m -= b0 @ b0.T
            if kappa.imag != 0:
                m = m * (-kappa)
            elif kappa != -1.0:
                m *= -kappa.real
            acc = m if acc is None else acc + m
        return acc
    return apply_function(dec1, phi.on_spectrum) - apply_function(dec0, phi.on_spectrum)


def empirical_spectrum(spec: ModelSpec, phi: PiecewiseFn, n_list) -> dict:
    """Per-truncation eigenvalue clouds of phi(H) - phi(H0).

    Returns clouds, the accumulation set of the last two rungs
    (accumulation_set; the one cloud for a one-rung ladder), and the count
    of eigenvalues beyond tol.BIG_EIGENVALUE per rung (the compactness
    fingerprint for continuous phi).
    """
    return _spectra(spec, (phi,), n_list)[0]


def _spectra(spec, phis, n_list):
    # empirical_spectrum for every symbol of phis, from one rung (opcore.ladder_rung) per N
    if not all(phi.is_real for phi in phis):
        raise SymbolError("complex symbols excluded from empirical validation "
                          "(difference non-normal; finite-section spectra unreliable)")
    n_list = tuple(_checked_int(n, "n_list", SymbolError) for n in n_list)
    if not n_list or list(n_list) != sorted(n_list):
        raise SymbolError("n_list must be ascending and non-empty")
    clouds = [[] for _ in phis]
    for n in n_list:
        rung = ladder_rung(build_model(replace(spec, n_half=n)))
        for c, phi in zip(clouds, phis):
            c.append(rung.cloud(phi.on_spectrum))
    return tuple({"n_list": n_list, "clouds": tuple(c),
                  "accumulation": accumulation_set(c[-1], c[-2]) if len(c) >= 2 else c[-1],
                  "big_counts": tuple(int(np.sum(np.abs(x) > tol.BIG_EIGENVALUE)) for x in c)}
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


def cross_term_compactness(spec: ModelSpec, phi1: PiecewiseFn, phi2: PiecewiseFn,
                           n_list, sv_index=20) -> dict:
    """Decay of the cross term phi-difference product along a truncation ladder.

    When the two symbols jump at disjoint locations the product of the two
    differences is compact, so its sv_index-th singular value must decay as
    the truncation grows; the report carries the per-rung sv_index + 3 leading
    singular values and the decay verdict.  sv_index lies in 1..the smallest
    rung's dim.  The second difference is taken as D2 = Q B to
    tol.CLOUD_FLOOR / 2 (Rung.symbol_factor), and D1 D2 = (D1 Q R^T) Q'^T with
    B^T = Q' R, so the singular values are those of the n x r matrix D1 Q R^T =
    M1 (W^T Q) R^T (Rung.mixed): within ||D1|| tol.CLOUD_FLOOR / 2 of exact,
    with no n x n difference formed or multiplied.  A rung of the dense route
    (symbol_factor's Q None) takes the product itself.
    """
    if not (phi1.is_real and phi2.is_real):
        raise SymbolError("complex symbols excluded from the cross term ladder")
    overlap = set(phi1.singsupp()) & set(phi2.singsupp())
    if overlap:
        raise SymbolError(f"symbols share jump locations {sorted(overlap)}")
    n_list = tuple(_checked_int(n, "n_list", SymbolError) for n in n_list)
    if len(n_list) < 2:
        raise SymbolError("need at least 2 ladder rungs")
    dim = replace(spec, n_half=min(n_list)).dim
    if list(n_list) != sorted(n_list) or not 1 <= sv_index <= dim:
        raise SymbolError(f"n_list={n_list} must ascend and sv_index={sv_index} lie in 1..{dim}")
    rows = []
    for n in n_list:
        rung = ladder_rung(build_model(replace(spec, n_half=n)))
        q, b = rung.symbol_factor(phi2.on_spectrum)
        if q is None:                               # a small rung: the product itself
            core = (rung.mixed(phi1.on_spectrum) @ rung.overlap.T) @ b
        else:                                       # D1 Q R^T, with B^T = Q' R
            r_t = np.linalg.qr(b.T, mode="r").T
            core = (rung.mixed(phi1.on_spectrum) @ (rung.overlap.T @ q)) @ r_t
        s = np.linalg.svd(core, compute_uv=False)[:sv_index + 3]
        rows.append(np.concatenate([s, np.zeros(sv_index + 3 - s.size)]))
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
    n_list = tuple(_checked_int(n, "n_list", SymbolError) for n in n_list)
    if len(n_list) < 2:
        raise SymbolError("need at least 2 ladder rungs")
    results = _spectra(spec, (PiecewiseFn(jumps=phi.jumps),) + pieces, n_list)
    sum_acc, *piece_results = (r["accumulation"] for r in results)
    union_pts = np.array(sorted(set([0.0] + [x for acc in piece_results for x in acc.tolist()])))
    sum_pts = np.concatenate([sum_acc, [0.0]]) if sum_acc.size else np.array([0.0])
    return {"distance": hausdorff(sum_pts, union_pts),
            "sum_accumulation": sum_acc,
            "piece_accumulations": tuple(piece_results)}
