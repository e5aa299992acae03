"""Piecewise symbols, predicted vs empirical spectra of the functional difference."""

import re

import numpy as np
import pytest
import scipy.linalg

from specdiff.alpha import alpha_derivative, d_spectrum_ladder
from specdiff.opcore import ModelSpec, build_model
from specdiff.pcfunc import (PiecewiseFn, SegmentUnion, SymbolError,
                             accumulation_set, cross_term_compactness,
                             empirical_spectrum, hausdorff,
                             predicted_ess_spectrum, symbol_difference,
                             union_formula_check)
from specdiff.resolvent import boundary_value

SPEC = ModelSpec("lattice1d", 100, ((0, 1.0),))
TWO_JUMP = PiecewiseFn(jumps=((-0.5, 0.0, 1.0), (0.5, 0.0, 0.5)))


def _alpha(lam, v=1.0):
    pair = build_model(ModelSpec("lattice1d", 20, ((0, v),)))
    return alpha_derivative(boundary_value(pair, lam), pair.j).value


def test_symbol_validation_and_round_trip():
    with pytest.raises(SymbolError):
        PiecewiseFn(jumps=((0.5, 0, 1), (-0.5, 0, 1)))
    with pytest.raises(SymbolError):
        PiecewiseFn(background="spline")
    # a jump is a 3-item list or tuple, or the error names it
    for jumps in ([(0.5, 1)], [0.5], [(0.5, 0.0, 1.0, 2.0)]):
        with pytest.raises(SymbolError, match="jump must be"):
            PiecewiseFn(jumps=jumps)
    # a field that is not a number names itself (through JSON: tests/test_harness.py)
    for kwargs, field in [(dict(jumps=(("abc", 0.0, 1.0),)), "jump location"),
                          (dict(jumps=((0.5, "0", 1.0),)), "jump left limit"),
                          (dict(jumps=((0.5, 0.0, True),)), "jump right limit"),
                          (dict(background="arctan_step_smoothed",
                                background_params=(1.0, "c", 0.2)), "background parameter"),
                          (dict(jumps=((np.inf, 0.0, 1.0),)), "jump location"),
                          (dict(jumps=((0.5, np.nan, 1.0),)), "jump left limit"),
                          (dict(jumps=((0.5, 0.0, complex(0.0, -np.inf)),)), "jump right limit"),
                          (dict(background="gaussian_bump",
                                background_params=(1.0, 0.0, np.nan)), "background parameter")]:
        with pytest.raises(SymbolError, match=f"{field} must be a number"):
            PiecewiseFn(**kwargs)
    phi = PiecewiseFn(jumps=((np.float64(0.5), 0, np.complex128(1j)),),
                      background="gaussian_bump", background_params=(1, 0, np.float32(0.5)))
    assert phi.jumps == ((0.5, 0j, 1j),) and phi.background_params == (1.0, 0.0, 0.5)
    phi = PiecewiseFn(jumps=((-0.5, 0.0, 1.0 + 1.0j),),
                      background="gaussian_bump", background_params=(1.0, 0.0, 2.0))
    assert PiecewiseFn.from_json(phi.to_json()) == phi
    assert not phi.is_real
    assert phi.kappa(-0.5) == 1.0 + 1.0j
    assert phi.kappa(0.3) == 0.0
    assert phi.singsupp() == (-0.5,)


def test_symbol_evaluation_left_limit_convention():
    phi = PiecewiseFn(jumps=((0.0, 2.0, 3.0),))
    assert np.array_equal(phi(np.array([-1.0, 0.0, 1.0])), [2.0, 2.0, 3.0])
    bump = PiecewiseFn(background="gaussian_bump", background_params=(2.0, 1.0, 0.5))
    assert bump(np.array([1.0]))[0] == pytest.approx(2.0, abs=0)


def test_scaling_covariance():
    scaled = TWO_JUMP.scaled(3.0)
    pred = predicted_ess_spectrum(TWO_JUMP, _alpha)
    pred3 = predicted_ess_spectrum(scaled, _alpha)
    assert pred3.radius() == pytest.approx(3.0 * pred.radius(), rel=1e-12)


def test_segment_union_merging_and_symmetry():
    u = SegmentUnion(endpoints=(0.5, -0.5, 0.25, 1j))
    assert set(u.endpoints) == {0.5 + 0j, 1j}
    assert u.contains_zero()
    assert u.radius() == 1.0
    assert SegmentUnion().is_empty
    with pytest.raises(SymbolError):
        u.real_interval()
    assert SegmentUnion(endpoints=(0.5,)).real_interval() == (-0.5, 0.5)


def test_prediction_continuous_symbol_empty():
    phi = PiecewiseFn(background="gaussian_bump", background_params=(1.0, 0.0, 1.0))
    assert predicted_ess_spectrum(phi, _alpha).is_empty


def test_prediction_single_and_two_jumps():
    single = PiecewiseFn(jumps=((0.0, 0.0, 1.0),))
    pred = predicted_ess_spectrum(single, _alpha)
    assert pred.radius() == pytest.approx(_alpha(0.0), rel=1e-12)
    pred2 = predicted_ess_spectrum(TWO_JUMP, _alpha)
    expected = max(_alpha(-0.5), 0.5 * _alpha(0.5))
    assert pred2.radius() == pytest.approx(expected, rel=1e-12)
    with pytest.raises(SymbolError):
        predicted_ess_spectrum(PiecewiseFn(jumps=((1.97, 0.0, 1.0),)), _alpha)


def test_empirical_rejects_complex_symbol():
    phi = PiecewiseFn(jumps=((0.0, 0.0, 1.0j),))
    with pytest.raises(SymbolError):
        empirical_spectrum(SPEC, phi, (50, 100))
    with pytest.raises(SymbolError, match="complex"):
        cross_term_compactness(SPEC, PiecewiseFn(jumps=((-0.5, 0.0, 1.0),)), phi, (50, 100))


def test_continuous_symbol_compactness_fingerprint():
    phi = PiecewiseFn(background="arctan_step_smoothed",
                      background_params=(1.0, 0.0, 0.2))
    res = empirical_spectrum(ModelSpec("lattice1d", 50, ((0, 0.5),)), phi,
                             (100, 200, 400))
    assert max(res["big_counts"]) == min(res["big_counts"])


def test_indicator_matches_projection_ladder_bitwise():
    # jump location off both spectra: strict-below and at-most selections agree
    lam = 0.3
    ind = PiecewiseFn(jumps=((lam, 1.0, 0.0),))
    res = empirical_spectrum(SPEC, ind, (100, 200))
    lad = d_spectrum_ladder(SPEC, lam, (50, 100, 200))
    assert np.array_equal(res["clouds"][-1], lad.eigenvalue_clouds[-1])
    assert np.array_equal(res["clouds"][-2], lad.eigenvalue_clouds[-2])


def test_symbol_difference_dense_vs_step_path():
    pair = build_model(ModelSpec("lattice1d", 40, ((0, 1.0),)))
    phi_step = PiecewiseFn(jumps=((0.3, 0.0, 0.5),))
    phi_dense = PiecewiseFn(jumps=((0.3, 0.0, 0.5),),
                            background="gaussian_bump",
                            background_params=(0.0, 0.0, 1.0))
    a = symbol_difference(pair, phi_step)            # projection-block path
    b = symbol_difference(pair, phi_dense)           # full functional calculus
    assert np.linalg.norm(a - b, 2) <= 1e-10


def test_complex_symbol_difference_on_both_paths():
    # a complex symbol takes the complex-kappa step path and the complex functional calculus;
    # both agree, and the difference is linear in the symbol: D(phi) = D(Re phi) + i D(Im phi)
    pair = build_model(ModelSpec("lattice1d", 40, ((0, 0.8), (2, -0.6))))
    jumps = ((-0.4, 0.5j, 1.0 - 0.25j), (0.3, 0.0, -0.5 + 1.0j))
    phi = PiecewiseFn(jumps=jumps)
    bumped = PiecewiseFn(jumps=jumps, background="gaussian_bump",
                         background_params=(0.0, 0.0, 1.0))
    assert not phi.is_real and np.iscomplexobj(phi(np.array([0.0])))
    a = symbol_difference(pair, phi)                 # projection-block path
    b = symbol_difference(pair, bumped)              # full functional calculus
    assert np.iscomplexobj(a) and np.iscomplexobj(b)
    assert np.max(np.abs(a - b)) <= 1e-12
    re, im = (PiecewiseFn(jumps=tuple((loc, part(lo), part(hi)) for loc, lo, hi in jumps))
              for part in (np.real, np.imag))
    parts = symbol_difference(pair, re) + 1j * symbol_difference(pair, im)
    assert np.max(np.abs(a - parts)) <= 1e-12


def test_empirical_cloud_norm_bound():
    res = empirical_spectrum(ModelSpec("lattice1d", 50, ((0, 1.0),)), TWO_JUMP,
                             (100, 200))
    sup = 1.5    # max |phi| over the real line for the two-jump symbol
    for c in res["clouds"]:
        assert np.max(np.abs(c)) <= 2.0 * sup + 1e-10


def test_hausdorff_basics():
    assert hausdorff([], []) == 0.0
    assert hausdorff([0.0], []) == np.inf
    assert hausdorff([0.0, 1.0], [0.0, 2.0]) == 1.0


def test_hausdorff_real_sets_match_the_distance_matrix():
    # ties within and across the sets, and non-dyadic values, so that the
    # sorted search must reproduce the brute-force bits
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.choice(rng.standard_normal(6), size=rng.integers(1, 12))
        b = np.concatenate([rng.choice(a, size=rng.integers(0, 4)),
                            rng.standard_normal(rng.integers(0, 8))])
        if b.size == 0:
            continue
        d = np.abs(a.astype(complex)[:, None] - b.astype(complex)[None, :])
        expected = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
        assert hausdorff(a, b) == expected
        assert hausdorff(b, a) == expected
    assert hausdorff([1j, 2.0], [0.0]) == 2.0          # complex sets keep the matrix


def test_accumulation_set_filters_strays():
    prev = np.array([0.0, 0.1, 0.2])
    cur = np.array([0.005, 0.105, 0.7])
    assert np.array_equal(accumulation_set(cur, prev), [0.005, 0.105])


def test_cross_term_disjoint_vs_control():
    phi1 = PiecewiseFn(jumps=((-0.5, 0.0, 1.0),))
    phi2 = PiecewiseFn(jumps=((0.5, 0.0, 0.5),))
    rep = cross_term_compactness(SPEC, phi1, phi2, (250, 500), sv_index=5)
    # far-index singular values sit at the tail of a fast-decaying sequence
    assert rep["tracked_values"][-1] <= 1e-4
    with pytest.raises(SymbolError):
        cross_term_compactness(SPEC, phi1, phi1, (250, 500))


@pytest.mark.parametrize("n_list, sv_index", [
    ((200, 100), 5), ((10, 10), 5), ((10, 20), 0), ((10, 20), 30), ((10, 20), 5.5),
    ((10, 20), "5"), ((10, 20), True)],
    ids=("descending", "repeated_rung", "index_zero", "index_past_the_dimension",
         "fractional_index", "string_index", "bool_index"))
def test_cross_term_rejects_a_bad_ladder_or_index(n_list, sv_index):
    # a ladder that does not ascend strictly, an index below 1, an index past the smallest
    # rung's dimension (21), and an index that is not an integer
    phi1 = PiecewiseFn(jumps=((-0.5, 0.0, 1.0),))
    phi2 = PiecewiseFn(jumps=((0.5, 0.0, 0.5),))
    with pytest.raises(SymbolError):
        cross_term_compactness(SPEC, phi1, phi2, n_list, sv_index=sv_index)


def test_cross_term_far_index_on_both_singular_value_routes(monkeypatch):
    # rungs of at most 600 rows take the product itself, and the 801-row rung of the two-site
    # input the n x r core of the certified factor (Rung.symbol_factor): ARPACK is never
    # called, and the 143 values match the dense product of the site-basis oracle
    import scipy.sparse.linalg
    real, arpack = scipy.sparse.linalg.svds, []

    def counting(op, *args, **kwargs):
        arpack.append(op.shape)
        return real(op, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "svds", counting)
    phi1 = PiecewiseFn(jumps=((-0.5, 0.0, 1.0),))
    phi2 = PiecewiseFn(jumps=((0.5, 0.0, 0.5),))
    for potential in (((0, 1.0),), ((0, 1.0), (2, -0.5))):
        spec = ModelSpec("lattice1d", 200, potential)
        rep = cross_term_compactness(spec, phi1, phi2, (200, 400), sv_index=140)
        assert arpack == [], potential
        assert [r.size for r in rep["singular_values"]] == [143, 143]
        pair = build_model(ModelSpec("lattice1d", 400, potential))
        dense = np.linalg.svd(symbol_difference(pair, phi1) @ symbol_difference(pair, phi2),
                              compute_uv=False)[:143]
        assert np.max(np.abs(rep["singular_values"][1] - dense)) <= 1e-12, potential


def test_cross_term_continuous_partner_small():
    phi1 = PiecewiseFn(jumps=((-0.5, 0.0, 1.0),))
    smooth = PiecewiseFn(background="gaussian_bump", background_params=(1.0, 0.0, 1.0))
    rep = cross_term_compactness(SPEC, phi1, smooth, (100, 200), sv_index=1)
    # the product norm converges to a small constant; it does not blow up
    assert rep["tracked_values"][-1] <= 0.1
    assert abs(rep["tracked_values"][-1] - rep["tracked_values"][0]) <= 0.01


def test_union_formula_two_pieces_small_scale_trend():
    # the distance is dominated by the slow spectral filling at the segment
    # edges; at desk-scale ladders it shrinks but remains well above 0.05
    phi = PiecewiseFn(jumps=((-0.5, 0.0, 1.0), (0.5, 0.0, 1.0)))
    spec = ModelSpec("lattice1d", 50, ((0, 1.0),))
    d_small = union_formula_check(spec, phi, (500, 1000))["distance"]
    d_large = union_formula_check(spec, phi, (1000, 2000))["distance"]
    assert d_large <= d_small


@pytest.mark.slow
def test_union_formula_two_pieces_stated_scale():
    # stated expectation: distance <= 0.05 at N=4000 with equal unit jumps
    phi = PiecewiseFn(jumps=((-0.5, 0.0, 1.0), (0.5, 0.0, 1.0)))
    rep = union_formula_check(ModelSpec("lattice1d", 50, ((0, 1.0),)), phi,
                              (2000, 4000))
    assert rep["distance"] <= 0.05


def test_union_formula_needs_two_rungs():
    phi = PiecewiseFn(jumps=((0.0, 0.0, 1.0),))
    with pytest.raises(SymbolError, match="at least 2 ladder rungs"):
        union_formula_check(SPEC, phi, (20,))
    with pytest.raises(SymbolError, match="n_list must be an integer"):   # not cut to N = 20
        empirical_spectrum(SPEC, phi, (20.7, 40))
    # a repeated rung: the accumulation set would compare a truncation with itself
    for check in (union_formula_check, empirical_spectrum):
        with pytest.raises(SymbolError, match=re.escape("n_list [20, 40, 40] must be ascending")):
            check(SPEC, phi, (20, 40, 40))
    with pytest.raises(SymbolError, match="need at least 1 ladder rungs, got 0"):
        empirical_spectrum(SPEC, phi, ())


def test_union_formula_matches_per_symbol_ladders_bitwise():
    # the composition union_formula_check had when it laddered every symbol
    # on its own: one empirical_spectrum and accumulation_set per symbol
    spec = ModelSpec("lattice1d", 20, ((0, 1.0), (1, -0.4)))
    n_list = (40, 81)
    for phi in (PiecewiseFn(jumps=((-0.5, 0.0, 1.0), (0.0, 0.0, 0.5), (0.7, 0.0, -0.8))),
                PiecewiseFn(jumps=((0.3, 0.0, 1.0),))):
        rep = union_formula_check(spec, phi, n_list)
        accs = []
        for sym in (PiecewiseFn(jumps=phi.jumps),) + phi.step_pieces():
            res = empirical_spectrum(spec, sym, n_list)
            accs.append(accumulation_set(res["clouds"][-1], res["clouds"][-2]))
        assert np.array_equal(rep["sum_accumulation"], accs[0])
        assert len(rep["piece_accumulations"]) == len(accs) - 1
        for got, want in zip(rep["piece_accumulations"], accs[1:]):
            assert np.array_equal(got, want)


def test_each_rung_is_decomposed_once_for_every_symbol(monkeypatch):
    # a one-site V at site 0 takes the even sector for every symbol: one eigenvalues-only solve
    real = scipy.linalg.eigh_tridiagonal
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    spec = ModelSpec("lattice1d", 10, ((0, 1.0),))
    n_list = (20, 40)
    one = PiecewiseFn(jumps=((0.3, 0.0, 1.0),))
    three = PiecewiseFn(jumps=((-0.5, 0.0, 1.0), (0.0, 0.0, 0.5), (0.5, 1.0, 0.0)))
    runs = (lambda: union_formula_check(spec, one, n_list),
            lambda: union_formula_check(spec, three, n_list),
            lambda: cross_term_compactness(spec, one, PiecewiseFn(jumps=((-0.5, 0.0, 1.0),)),
                                           n_list, sv_index=2),
            lambda: empirical_spectrum(spec, three, n_list))
    for run in runs:
        calls.clear()
        run()
        assert calls == [True] * len(n_list)       # one solve of H's sector; H0 in closed form


def test_union_single_piece_distance_zero():
    phi = PiecewiseFn(jumps=((0.0, 0.0, 1.0),))
    rep = union_formula_check(ModelSpec("lattice1d", 50, ((0, 1.0),)), phi,
                              (100, 200))
    assert rep["distance"] <= 1e-12


def test_small_jump_piece_norm_bound():
    # a piece with jump 2^-5 contributes at most a length-2*2^-5 segment
    small = PiecewiseFn(jumps=((0.5, 0.0, 2.0 ** -5),))
    pair = build_model(ModelSpec("lattice1d", 100, ((0, 1.0),)))
    delta = symbol_difference(pair, small)
    assert np.linalg.norm(delta, 2) <= 2.0 * 2.0 ** -5 + 1e-12
