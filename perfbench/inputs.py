"""Seeded inputs of the four workloads.

Standard library only: the same seed gives byte-identical inputs (see
`dumps`), and each workload always contains the paper's canonical points.
Seeds change values, never sizes, so the work per run stays the same from
seed to seed.  Seeded spectral points come in mirrored pairs (x, -x): the
eigenvector blocks below x and below -x together span the whole space, so
their cost does not depend on the draw.

An operation ("op") is one call into the program:
  run             -- specdiff.harness.run on an experiment config
  extrapolated    -- resolvent.boundary_value(route="extrapolated") at each
                     lambda of one model, checked against a closed form
  union_formula   -- pcfunc.union_formula_check
  cross_term      -- pcfunc.cross_term_compactness
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("ladder", "sweep", "phi", "hankel")

LADDER_RUNGS = [250, 500, 1000]
LADDER_SEEDED_RUNGS = [125, 250, 500]
LADDER_CANONICAL_LAMBDAS = [-1.0, 0.0, 0.7, -3.0]
CANONICAL_POTENTIAL = [[0, 1.0]]
SWEEP_CANONICAL_LAMBDAS = [-1.0, 0.0, 0.7]
SWEEP_POINTS = 2000          # seeded closed-form grid points per sweep kind
SWEEP_EXTRAP_POINTS = 20     # seeded extrapolated boundary values per model
PHI_CANONICAL_JUMPS = [[-0.5, 0.0, 1.0], [0.5, 0.0, 0.5]]
HANKEL_SIZES = [200, 250, 300, 350, 400]
HANKEL_CANONICAL = (200, 50.0)


def _potential(rng, sites, vmin, vmax, signs=(-1.0, 1.0)):
    """Distinct sites with values of seeded sign and magnitude in [vmin, vmax]."""
    return [[s, round(rng.choice(signs) * rng.uniform(vmin, vmax), 6)] for s in sites]


def _model(kind, n_half, potential):
    return {"kind": kind, "n_half": n_half, "potential": potential,
            "decay_rate": None, "seed": 0}


def _phi(jumps, background="zero", params=()):
    return {"jumps": [{"lambda": loc, "left": [lo, 0.0], "right": [hi, 0.0]}
                      for loc, lo, hi in jumps],
            "background": {"name": background, "params": list(params)}}


def _lambdas(rng, count, lo, hi, canonical=()):
    return sorted({round(rng.uniform(lo, hi), 12) for _ in range(count)} | set(canonical))


def _mirrored(rng, lo, hi):
    x = round(rng.uniform(lo, hi), 12)
    return [-x, x]


def _ladder(rng):
    # repulsive, as in the repository's ladder tests: no bound state lies below
    # an in-band lambda, so D has no unpaired +-1 eigenvalues
    two_site = _potential(rng, [0, rng.choice([1, 2, 3])], 0.3, 1.0, signs=(1.0,))
    return [
        {"call": "run", "config": {
            "kind": "d_ladder", "model": _model("lattice1d", 10, CANONICAL_POTENTIAL),
            "lambda_grid": LADDER_CANONICAL_LAMBDAS, "n_list": LADDER_RUNGS}},
        {"call": "run", "config": {
            "kind": "d_ladder", "model": _model("lattice1d", 10, two_site),
            "lambda_grid": _mirrored(rng, 0.1, 1.7), "n_list": LADDER_SEEDED_RUNGS}},
    ]


def _sweep(rng):
    ops = []
    for kind in ("alpha_sweep", "fredholm_sweep", "scattering_compare"):
        sites = sorted(rng.sample(range(-5, 6), 3))
        ops.append({"call": "run", "config": {
            "kind": kind, "model": _model("lattice1d", 50, _potential(rng, sites, 0.1, 1.0)),
            "lambda_grid": _lambdas(rng, SWEEP_POINTS, -1.85, 1.85,
                                    SWEEP_CANONICAL_LAMBDAS)}})
    for kind, n_half, sites, reference in (("lattice1d", 2000, [0, 1], "closed_form"),
                                           ("jacobi", 4000, [0, 2], "half_line")):
        ops.append({"call": "extrapolated", "reference": reference,
                    "model": _model(kind, n_half, _potential(rng, sites, 0.3, 1.0)),
                    "lambdas": _lambdas(rng, SWEEP_EXTRAP_POINTS, -1.7, 1.7, [0.7])})
    return ops


def _phi_ops(rng):
    seeded_model = _model("lattice1d", 50, _potential(rng, [0, rng.choice([1, 2])], 0.3, 1.0))
    canonical_model = _model("lattice1d", 50, CANONICAL_POTENTIAL)

    # jump locations near the canonical +-0.5: the width of the eigenvector
    # block below a jump sets the peak memory of symbol_difference
    def two_jumps():
        return [[x, 0.0, round(rng.uniform(0.3, 1.0), 6)] for x in _mirrored(rng, 0.4, 0.6)]

    bump = [round(rng.uniform(0.3, 1.0), 6), round(rng.uniform(-1.0, 1.0), 6),
            round(rng.uniform(0.3, 1.0), 6)]
    first, second = two_jumps()
    return [
        {"call": "run", "config": {
            "kind": "phi_check", "model": canonical_model,
            "phi": _phi(PHI_CANONICAL_JUMPS), "n_list": LADDER_RUNGS}},
        {"call": "run", "config": {
            "kind": "phi_check", "model": seeded_model,
            "phi": _phi(two_jumps(), "gaussian_bump", bump), "n_list": LADDER_RUNGS}},
        {"call": "union_formula", "model": canonical_model,
         "phi": _phi(two_jumps()), "n_list": [500, 1000]},
        {"call": "cross_term", "model": seeded_model, "phi1": _phi([first]),
         "phi2": _phi([second]), "n_list": [250, 500], "sv_index": 5},
    ]


def _hankel(rng):
    sizes = [HANKEL_CANONICAL] + [
        (n + rng.randint(-4, 4), round(10 ** rng.uniform(1.69897, 3.0), 6))
        for n in HANKEL_SIZES]
    return [{"call": "run", "config": {
        "kind": "hankel_suite",
        "model": _model("lattice1d", 500, _potential(rng, [0, rng.choice([1, 2])], 0.3, 1.0)),
        "lambda_grid": [round(rng.uniform(-0.3, 0.3), 12)],
        "hankel_n": n, "hankel_t": t}} for n, t in sizes]


_GENERATORS = {"ladder": _ladder, "sweep": _sweep, "phi": _phi_ops, "hankel": _hankel}


def generate(workload, seed):
    """The workload's list of operations for this seed."""
    rng = random.Random(f"{workload}:{int(seed)}")
    return {"workload": workload, "seed": int(seed), "ops": _GENERATORS[workload](rng)}


def dumps(inputs):
    return json.dumps(inputs, sort_keys=True)
