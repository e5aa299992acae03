"""Operations of a workload: set-up, execution through the public API, checks.

Every call into the program goes through a module attribute looked up at call
time (`harness.run`, `resolvent.boundary_value`, ...), so the tracer's
wrappers see it.  Reference values are computed in `prepare`, before any
timing; checks run after each pass, outside the timed region, against the
bounds the repository's own tests assert.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction

import numpy as np

from specdiff import harness, opcore, pcfunc, resolvent, scatter1d

D2_RESIDUAL_TOL = 1e-9
PAIRING_TOL = 1e-6
ALPHA_TOL = 1e-6
ROUTE_TOL = 1e-8
BRIDGE_TOL = 1e-6
EXTRAP_FACTOR = 10.0
GAMMA_LO, GAMMA_HI = -1e-8, math.pi + 1e-6
NORM_SLACK = 1e-10


class Op:
    """One call into the program, with the points it is checked on."""

    def __init__(self, index, spec, out_root):
        self.spec = spec
        self.call = spec["call"]
        self.out_dir = os.path.join(out_root, f"op{index}")
        if self.call == "run":
            doc = dict(spec["config"], output_dir=self.out_dir)
            self.config = harness.ExperimentConfig.from_json(json.dumps(doc))
            self.label = f"{self.config.kind} V={self.config.model.potential}"
        else:
            self.model = opcore.ModelSpec.from_json(json.dumps(spec["model"]))
            self.label = f"{self.call} {self.model.kind} V={self.model.potential}"

    def validate(self):
        """Static diagnostics of the op's inputs (harness configs only)."""
        return harness.validate(self.config) if self.call == "run" else []

    @property
    def points(self):
        """Operations in the fail_share sense: grid points, ladder lambdas or one call."""
        if self.call == "run" and self.config.kind not in ("phi_check", "hankel_suite"):
            return len(self.config.lambda_grid)
        if self.call == "extrapolated":
            return len(self.spec["lambdas"])
        return 1

    def prepare(self):
        """Untimed set-up: the model pair and closed-form references."""
        self.ref = {}
        if self.call == "run" and self.config.kind == "d_ladder":
            pot = self.config.model.potential
            self.ref = {lam: _alpha_transfer(pot, lam) for lam in self.config.lambda_grid}
        elif self.call == "extrapolated":
            self.pair = opcore.build_model(self.model)
            for lam in self.spec["lambdas"]:
                if self.spec["reference"] == "closed_form":
                    self.ref[lam] = resolvent.boundary_value(self.pair, lam,
                                                             route="closed_form").t0
                else:
                    self.ref[lam] = _half_line_t0(self.model, lam)
        elif self.call == "union_formula":
            self.phi = pcfunc.PiecewiseFn.from_json(json.dumps(self.spec["phi"]))
            self.ref = {"sup": _sup_abs(self.phi)}
        elif self.call == "cross_term":
            self.phi1 = pcfunc.PiecewiseFn.from_json(json.dumps(self.spec["phi1"]))
            self.phi2 = pcfunc.PiecewiseFn.from_json(json.dumps(self.spec["phi2"]))
            self.ref = {"bound": 4.0 * _sup_abs(self.phi1) * _sup_abs(self.phi2)}
        elif self.config.kind == "phi_check":
            self.ref = {"sup": _sup_abs(self.config.phi)}

    def execute(self):
        """The timed call.  Returns its output, or the exception it raised."""
        try:
            if self.call == "run":
                return harness.run(self.config, overwrite=True)
            if self.call == "extrapolated":
                out = {}
                for lam in self.spec["lambdas"]:
                    try:
                        out[lam] = resolvent.boundary_value(self.pair, lam, route="extrapolated")
                    except Exception as exc:  # each lambda is its own operation
                        out[lam] = exc
                return out
            if self.call == "union_formula":
                return pcfunc.union_formula_check(self.model, self.phi, self.spec["n_list"])
            return pcfunc.cross_term_compactness(self.model, self.phi1, self.phi2,
                                                 self.spec["n_list"],
                                                 sv_index=self.spec["sv_index"])
        except Exception as exc:  # the op failed; the pass goes on
            return exc

    def check(self, output):
        """[(label, failure message or None)] for each point of this op."""
        if isinstance(output, Exception):
            return [(f"{self.label} #{i}", _err(output)) for i in range(self.points)]
        if self.call == "extrapolated":
            return [(f"{self.label} lambda={lam!r}", self._check_extrapolated(lam, bv))
                    for lam, bv in output.items()]
        if self.call == "union_formula":
            pts = [output["sum_accumulation"], *output["piece_accumulations"]]
            return [(self.label, _norm_bound(np.concatenate(pts), 2.0 * self.ref["sup"]))]
        if self.call == "cross_term":
            top = max(float(np.max(sv)) for sv in output["singular_values"])
            return [(self.label, _norm_bound([top], self.ref["bound"]))]
        errors = {e["lambda"]: e["error"] for e in output.errors}
        return getattr(self, f"_check_{self.config.kind}")(errors)

    def _path(self, name):
        return os.path.join(self.out_dir, name)

    def _rows(self, name):
        with open(self._path(name)) as fh:
            return list(csv.DictReader(fh))

    def _grid(self, errors, by_lambda, check):
        """Per-lambda verdicts for a sweep: errors, missing rows, then the check."""
        out = []
        for lam in self.config.lambda_grid:
            label = f"{self.label} lambda={lam!r}"
            if lam in errors:
                out.append((label, errors[lam]))
            elif lam not in by_lambda:
                out.append((label, "no output row and no recorded error"))
            else:
                out.append((label, check(lam, by_lambda[lam])))
        return out

    def _check_d_ladder(self, errors):
        potential = self.config.model.potential

        def check(lam, est):
            msgs = []
            worst = max(est["b4_residuals"])
            if worst > D2_RESIDUAL_TOL:
                msgs.append(f"D^2 residual {worst:.2e} > {D2_RESIDUAL_TOL:g}")
            # +-1 eigenvalues come from rank(E) != rank(E0) and are checked
            # against exact eigenvalue counts; the rest of the cloud pairs up
            cloud = np.array(est["filtered_cloud"])
            inner = (np.abs(cloud) > PAIRING_TOL) & (np.abs(cloud) < 1.0 - PAIRING_TOL)
            nz = np.sort(cloud[inner])
            pairing = float(np.max(np.abs(nz + nz[::-1]))) if nz.size else 0.0
            if pairing > PAIRING_TOL:
                msgs.append(f"+-pairing {pairing:.2e} > {PAIRING_TOL:g}")
            n = est["n_list"][-1]
            exact = _count_below(n, potential, lam) - _count_below(n, (), lam)
            found = est["plus_one_count"] - est["minus_one_count"]
            if found != exact:
                msgs.append(f"rank(E) - rank(E0) = {found} from the +-1 eigenvalues of D, "
                            f"{exact} by exact eigenvalue counts")
            alpha = self.ref[lam]
            if alpha == 0.0:
                counts = [int(np.sum(np.abs(c) > 0.1)) for c in est["eigenvalue_clouds"]]
                if any(counts):
                    msgs.append(f"off-spectrum counts {counts} not all 0")
            elif len(potential) == 1:
                if est["alpha_empirical"] > alpha + ALPHA_TOL:
                    msgs.append(f"alpha_empirical {est['alpha_empirical']:.4f} > "
                                f"alpha {alpha:.4f}")
            else:
                # two-site V can give D legitimate +-1 eigenvalues (checked
                # above against exact counts); the rest of the cloud stays
                # within alpha
                below_one = np.abs(cloud[np.abs(cloud) < 1.0 - PAIRING_TOL])
                top = float(np.max(below_one)) if below_one.size else 0.0
                if top > alpha + ALPHA_TOL:
                    msgs.append(f"filtered cloud inside (-1, 1) reaches {top:.4f} > "
                                f"alpha {alpha:.4f}")
            if msgs and _is_h0_eigenvalue(n, lam):
                msgs.append(f"lambda is an eigenvalue of H0 at N = {n} (ROADMAP open item 1)")
            return "; ".join(msgs) or None

        found = {}
        for lam in self.config.lambda_grid:
            path = self._path(f"d_ladder_lambda_{lam:+.6g}.json")
            if lam not in errors and os.path.exists(path):
                with open(path) as fh:
                    found[lam] = json.load(fh)
        return self._grid(errors, found, check)

    def _check_alpha_sweep(self, errors):
        by = {}
        for r in self._rows("alpha_sweep.csv"):
            by.setdefault(float(r["lambda"]), {})[r["route"]] = float(r["value"])

        def check(lam, v):
            d, s = v.get("derivative"), v.get("smatrix_tilde")
            if d is None or s is None:
                return "a route is missing"
            if abs(d - s) > ROUTE_TOL:
                return f"|alpha_derivative - alpha_smatrix| = {abs(d - s):.2e}"
            if max(d, s) > 1.0 + ALPHA_TOL:
                return f"alpha {max(d, s)} above 1"
            return None
        return self._grid(errors, by, check)

    def _check_fredholm_sweep(self, errors):
        by = {float(r["lambda"]): r for r in self._rows("fredholm_sweep.csv")}

        def check(lam, r):
            alpha = float(r["alpha"])
            if bool(int(r["fredholm"])) != (alpha < 1.0 - ALPHA_TOL):
                return f"Fredholm flag {r['fredholm']} disagrees with alpha {alpha}"
            return None
        return self._grid(errors, by, check)

    def _check_scattering_compare(self, errors):
        by = {float(r["lambda"]): r for r in self._rows("scattering_compare.csv")}

        def check(lam, r):
            if float(r["discrepancy"]) > BRIDGE_TOL:
                return f"|||S - I||/2 - alpha| = {float(r['discrepancy']):.2e}"
            if float(r["alpha_derivative"]) > 1.0 + ALPHA_TOL:
                return f"alpha {r['alpha_derivative']} above 1"
            return None
        return self._grid(errors, by, check)

    def _check_phi_check(self, errors):
        with open(self._path("phi_check.json")) as fh:
            out = json.load(fh)
        return [(self.label, _norm_bound(out.get("accumulation", []), 2.0 * self.ref["sup"]))]

    def _check_hankel_suite(self, errors):
        eig = [float(r["eigenvalue"]) for r in self._rows("gamma_spectrum.csv")]
        with open(self._path("hankel_suite.json")) as fh:
            out = json.load(fh)
        msgs = []
        if min(eig) < GAMMA_LO or max(eig) > GAMMA_HI:
            msgs.append(f"Gamma spectrum [{min(eig):.3e}, {max(eig):.6f}] outside [0, pi]")
        if not out["carleman_ok"]:
            msgs.append(f"Carleman bound fails (norm {out['carleman_norm']:.6f})")
        label = f"{self.label} n={self.config.hankel_n} T={self.config.hankel_t}"
        return [(label, "; ".join(msgs) or None)]

    def _check_extrapolated(self, lam, bv):
        if isinstance(bv, Exception):
            return _err(bv)
        dev = float(np.max(np.abs(bv.t0 - self.ref[lam])))
        if dev > EXTRAP_FACTOR * bv.err_estimate:
            return f"|t0 - closed form| = {dev:.2e} > 10 * err_estimate {bv.err_estimate:.2e}"
        return None


def _err(exc):
    return f"{type(exc).__name__}: {exc}"


def _norm_bound(values, bound):
    top = float(np.max(np.abs(values))) if len(values) else 0.0
    return None if top <= bound + NORM_SLACK else f"|eig| {top:.6f} > {bound:.6f}"


def _alpha_transfer(potential, lam):
    """alpha = ||S - I||/2 from the transfer-matrix S; 0 off the band."""
    if abs(lam) >= 2.0:
        return 0.0
    s = scatter1d.smatrix_transfer(potential, lam).s
    return 0.5 * float(np.linalg.norm(s - np.eye(2), 2))


def _half_line_t0(spec, lam):
    """Sandwiched free resolvent at lam + i0 on sites 0, 1, ... (Dirichlet at -1).

    R0(x, y) = (w^|x-y| - w^(x+y+2)) / (w - 1/w) with w + 1/w = lam, |w| < 1.
    """
    w = resolvent.lattice_w(complex(lam))
    sites = np.array([s for s, _ in spec.potential], dtype=float)
    g = np.sqrt(np.abs([v for _, v in spec.potential]))
    kernel = (w ** np.abs(sites[:, None] - sites[None, :])
              - w ** (sites[:, None] + sites[None, :] + 2)) / (w - 1.0 / w)
    return g[:, None] * kernel * g[None, :]


# arccos(lam / 2) / pi for the lambdas where H0 = 2 cos(k pi / (2N + 2)) can
# hit lam exactly; comparisons there are made in exact arithmetic
_EXACT_ANGLES = {0.0: Fraction(1, 2), 1.0: Fraction(1, 3), -1.0: Fraction(2, 3)}


def _is_h0_eigenvalue(n, lam):
    angle = _EXACT_ANGLES.get(lam)
    return angle is not None and (angle * (2 * n + 2)).denominator == 1


def _count_below(n, potential, lam):
    """Eigenvalues of the lattice1d H0 + V on sites -n..n strictly below lam.

    Closed form for V = 0 (exact at the lambdas above); otherwise the Sturm
    count of H - lam, exact unless lam lies within roundoff of an eigenvalue.
    """
    m = 2 * n + 2
    if not potential:
        if lam in _EXACT_ANGLES:
            return sum(1 for k in range(1, m) if Fraction(k, m) > _EXACT_ANGLES[lam])
        return int(np.sum(2.0 * np.cos(np.arange(1, m) * np.pi / m) < lam))
    diag = [0.0] * (2 * n + 1)
    for site, value in potential:
        diag[site + n] = value
    count, d = 0, None
    for a in diag:
        d = a - lam if d is None else a - lam - 1.0 / d
        if d == 0.0:
            d = 1e-300
        count += d < 0.0
    return count


def _sup_abs(phi):
    """sup |phi| over [-4, 4], which holds the spectra of every model used here.

    Exact for step pieces (constant between jumps) and for the bump, whose
    maximum sits at its centre.
    """
    x = [np.linspace(-4.0, 4.0, 20001)]
    x += [np.array([loc, np.nextafter(loc, np.inf)]) for loc, _, _ in phi.jumps]
    if phi.background != "zero":
        x.append(np.array([phi.background_params[1]]))
    return float(np.max(np.abs(phi(np.concatenate(x)))))
