"""Numerical laboratory for spectral differences of projection pairs.

Cross-validates three routes to the jump amplitude alpha(lambda), two routes
to the 2x2 lattice scattering matrix, truncation-ladder essential spectra of
projection differences, Nystrom models of the comparison Hankel operators,
and the piecewise-continuous functional calculus for phi(H) - phi(H0).

Public names load their module on first access (PEP 562), so importing
specdiff.cli does not load numpy and `specdiff --threads` still takes effect.
"""

import importlib
import os

__version__ = "0.1.0"

# the environment variables that cap the BLAS and OpenMP thread pools (specdiff --threads sets
# them, and the run manifest records them)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# NumPy and SciPy each bundle an OpenBLAS whose idle workers spin for 2^28 cycles by default
# after every threaded call, so code that alternates between the two keeps both pools spinning
# against each other.  A timeout of 2^4 cycles lets them sleep.  Each copy reads the variable
# when it loads, and this import loads no NumPy, so it is in place for both; a value already in
# the environment wins.  Thread counts are untouched, so no result changes by a bit.
BLAS_THREAD_TIMEOUT = "4"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", BLAS_THREAD_TIMEOUT)

_EXPORTS = {
    "alpha": ("AlphaEstimate", "EssSpectrumEstimate", "alpha_derivative",
              "alpha_proj_limit", "alpha_smatrix", "d_spectrum_ladder", "fredholm_check"),
    "harness": ("ExperimentConfig", "RunRecord", "run", "validate"),
    "hankelmodel": ("HankelDiscretization", "build_l_operators", "gamma_matrix",
                    "gamma_tensor_spectrum", "hankel_bound_check"),
    "opcore": ("ModelSpec", "OperatorPair", "SpectralDecomposition", "apply_function",
               "build_model", "eig", "eigendecompose", "spectral_projection"),
    "pcfunc": ("PiecewiseFn", "SegmentUnion", "accumulation_set", "cross_term_compactness",
               "empirical_spectrum", "hausdorff", "predicted_ess_spectrum",
               "union_formula_check"),
    "resolvent": ("BoundaryValue", "boundary_value", "stone_consistency", "t0_of_z",
                  "t_of_z"),
    "scatter1d": ("LatticeScattering", "smatrix_stationary", "smatrix_transfer"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:        # submodules stay reachable as attributes: specdiff.alpha
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
