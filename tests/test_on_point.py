"""Spectral selection at a point follows exact arithmetic, not roundoff signs.

Every lattice1d truncation (2N+1 sites) has the exact eigenvalue 0 in H0, and
for odd N also in H (the odd sector never sees a potential at site 0).  A
solver returns it as +-1e-16 with a sign that depends on the LAPACK build
(H0's closed form gives exactly 0).
Here that eigenvalue is forced to -k ulp, 0 and +k ulp, in H0's closed form
and in every solve of H, and every selection at lambda = 0 must give the same
output for all three.  The forcing also reaches the even-sector route of a
one-site ladder: H0's closed form on the sector (whose 0 mode is there for
even N) and the eigenvalues-only solve of H on it.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from specdiff import alpha, opcore, pcfunc
from specdiff.alpha import d_spectrum_ladder
from specdiff.hankelmodel import build_l_operators
from specdiff.opcore import (ModelSpec, build_model, eig, spectral_point_tol,
                             spectral_projection)
from specdiff.pcfunc import PiecewiseFn, symbol_difference
from specdiff.resolvent import stone_consistency

ULP = np.spacing(2.0)            # ||H0|| < 2 for every truncation
OFFSETS = (-4.0 * ULP, 0.0, 4.0 * ULP)
SPEC = ModelSpec("lattice1d", 10, ((0, 1.0),))
LADDER = (50, 101, 200)
SECTOR_CHAINS = {2 * n + 1 for n in LADDER}      # the even sector's closed form, one per rung


def test_forced_offsets_lie_within_the_on_point_tolerance():
    assert max(abs(o) for o in OFFSETS) < spectral_point_tol(1.0)


def _force_zero_mode(monkeypatch, offset):
    """Make H0's closed forms (whole and even sector) and every tridiagonal solve of H return
    their on-0 eigenvalues as offset."""
    real_solver, real_chain = scipy.linalg.eigh_tridiagonal, opcore.hopping_eigenpairs
    real_values = opcore.hopping_eigenvalues
    forced = {"free": [], "full": [], "sector": []}
    eigvals_only = []               # one flag per solve that returned eigenvalues alone

    def force(w, which):
        w = np.array(w)
        on = np.abs(w) <= 1e-12
        w[on] = offset
        forced[which].append(int(on.sum()))
        return w

    def solver(d, e, *args, **kwargs):
        out = real_solver(d, e, *args, **kwargs)
        if isinstance(out, tuple):
            return force(out[0], "full"), out[1]
        eigvals_only.append(kwargs.get("eigvals_only", False))
        return force(out, "full")

    def chain(n):
        dec = real_chain(n)
        return replace(dec, eigenvalues=force(dec.eigenvalues, "free"))

    def values(n):
        # the closed form the even sector reads, at the 2N + 1 sites of a ladder rung, and the
        # whole chain's elsewhere
        return force(real_values(n), "sector" if n in SECTOR_CHAINS else "free")

    # modules that bound the solver by name at import, and scipy.linalg for
    # those that look it up at call time; opcore looks up the closed form at call time
    for mod in (scipy.linalg, alpha, pcfunc):
        if hasattr(mod, "eigh_tridiagonal"):
            monkeypatch.setattr(mod, "eigh_tridiagonal", solver)
    monkeypatch.setattr(opcore, "hopping_eigenpairs", chain)
    monkeypatch.setattr(opcore, "hopping_eigenvalues", values)
    return forced, eigvals_only


def _outputs(offset):
    with pytest.MonkeyPatch.context() as mp:
        forced, eigvals_only = _force_zero_mode(mp, offset)
        out = _selections_at_zero()
    for which, counts in forced.items():
        assert any(counts), f"no eigenvalue of {which} sat on 0; the forcing did not reach it"
    # the sector's solve of H (one per rung of the ladder) has no eigenvalue on 0, but it was
    # intercepted
    assert eigvals_only == [True] * 3
    return out


def _selections_at_zero():
    out = {}
    pair = build_model(ModelSpec("lattice1d", 2))
    dec = eig(pair, "free")
    out["projection"] = spectral_projection(dec, 0.0)

    est = d_spectrum_ladder(SPEC, 0.0, LADDER)
    out["clouds"] = est.eigenvalue_clouds
    out["filtered"] = est.filtered_cloud
    out["alpha_empirical"] = est.alpha_empirical
    out["plus_minus"] = (est.plus_one_count, est.minus_one_count)
    nz = np.sort(est.filtered_cloud[np.abs(est.filtered_cloud) > 1e-6])
    out["pairing"] = float(np.max(np.abs(nz + nz[::-1])))

    for n in (40, 41):
        pair = build_model(ModelSpec("lattice1d", n, ((0, 1.0),)))
        out[f"step_{n}"] = symbol_difference(pair, PiecewiseFn(jumps=((0.0, 0.0, 0.5),)))
        out[f"dense_{n}"] = symbol_difference(
            pair, PiecewiseFn(jumps=((0.0, 0.0, 0.5),), background="gaussian_bump",
                              background_params=(0.25, 0.0, 1.0)))
        out[f"b16_{n}"] = build_l_operators(pair, 0.0, 64, 20.0)["residual_b16"]

    # Stone windows [a, b) ending on H0's exact eigenvalues 0 and +-1; V sits at site 1,
    # since H0's 0 mode vanishes at site 0 and a V there would not see it
    pair = build_model(ModelSpec("lattice1d", 11, ((1, 1.0),)))
    for a, b in ((0.0, 1.0), (-1.0, 0.0)):
        out[f"stone_{a}_{b}"] = stone_consistency(pair, a, b, 16)
    return out


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.fixture(scope="module")
def by_offset():
    return {offset: _outputs(offset) for offset in OFFSETS}


def test_selection_at_zero_is_independent_of_the_roundoff_sign(by_offset):
    ref = by_offset[0.0]
    for offset in OFFSETS:
        got = by_offset[offset]
        assert got.keys() == ref.keys()
        for key in ref:
            assert _same(got[key], ref[key]), (offset, key)


def test_selection_at_zero_gives_the_exact_arithmetic_answer(by_offset):
    out = by_offset[OFFSETS[0]]
    # 0 is not strictly below 0: E0(-inf, 0) of the 5-site chain has rank 2
    assert np.trace(out["projection"]) == pytest.approx(2.0, abs=1e-10)
    # rank E(-inf, 0) = rank E0(-inf, 0) = N for a repulsive site, so D has no
    # +-1 eigenvalue; the rest of the cloud pairs up inside the band
    assert out["plus_minus"] == (0, 0)
    assert out["pairing"] <= 1e-6
    assert 0.2 <= out["alpha_empirical"] <= 0.4473     # alpha(0) = 1/sqrt(5)
    # the step symbol takes its left limit on the 0 mode: the trace of
    # kappa (E0(-inf, 0] - E(-inf, 0]) counts eigenvalues <= 0 exactly
    for n in (40, 41):
        w1 = np.linalg.eigvalsh(build_model(ModelSpec("lattice1d", n, ((0, 1.0),))).dense("full"))
        at_most_zero = int(np.sum(w1 < -1e-9) + np.sum(np.abs(w1) <= 1e-9))
        assert np.trace(out[f"step_{n}"]) == pytest.approx(0.5 * (n + 1 - at_most_zero),
                                                           abs=1e-10)
    # [0, 1) holds the 0 mode, which (1e-9, 1) leaves out; [-1, 0) holds -1 but not 0
    pair = build_model(ModelSpec("lattice1d", 11, ((1, 1.0),)))
    assert stone_consistency(pair, 1e-9, 1.0, 16) == pytest.approx(0.0753, abs=5e-5)
    assert out["stone_0.0_1.0"] == pytest.approx(0.00802, abs=5e-6)
    assert out["stone_-1.0_0.0"] == pytest.approx(0.01281, abs=5e-6)
