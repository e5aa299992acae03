"""Every numerical threshold of specdiff, and the table the manifest reports.

The numerical modules read these names at call time (tol.NAME), so the
table is the policy in force.  Two are bound at import as default
arguments: alpha.transient_filter's move_tol and hankelmodel's span.
"""

BAND_MARGIN = 0.1                 # lambda kept this far inside the lattice band (-2, 2)
# An eigenvalue within SPECTRAL_POINT_ULPS * eps * ||M|| of a spectral point
# counts as equal to it.  Roundoff puts an exact eigenvalue at most a few
# eps * ||M|| off (<= 6.5e-16 for the lattice1d H0, N = 2..8000), while true
# eigenvalue gaps stay >= 7.8e-4 up to N = 4000, so the rule follows exact
# arithmetic with wide margins on both sides.
SPECTRAL_POINT_ULPS = 32
SYMMETRY = 1e-10                  # relative asymmetry eigendecompose accepts
PSD_FLOOR = 1e-10                 # B0, B and psd_sqrt arguments: eigenvalues >= -PSD_FLOOR
INVERSION_IDENTITY = 1e-9         # ||(I - T J)(I + T0 J) - I||
RESONANCE_COND = 1e12             # cond(I + T0 J) above this is a resonance
RICHARDSON_EPS0 = 0.1             # the extrapolated route's eps_j = RICHARDSON_EPS0 * 2^-j,
RICHARDSON_STEPS = 10             # j = 0..RICHARDSON_STEPS
ALPHA_CAP = 1e-6                  # alpha may exceed 1 by this much
KERNEL_TOL = 1e-6                 # Fredholm: sigma_min above this means no kernel
UNITARITY = 1e-6                  # S-tilde unitarity defect
SCATTERING_UNITARITY = 1e-10      # transfer-matrix S unitarity defect
STATIONARY_Z_NORMALIZATION = 1e-9  # ||pi Z* Z - B0||
EPS_N_MIN = 50.0                  # projection windows: eps * N >= EPS_N_MIN
TRANSIENT_MOVE = 0.1              # ladder clouds: farther moves between rungs are transients
PM_ONE = 1e-6                     # eigenvalues of D this close to +-1 count as +-1
ACCUMULATION = 0.02               # accumulation set: reproduced within this at the last rung
GRID_SPAN = 1e12                  # Hankel grids span (T / GRID_SPAN, T)

__version__ = 4                   # of the table: raised whenever a key or a value changes


def table():
    """{lower-cased name: value} for every numeric constant of this module."""
    return {name.lower(): value for name, value in globals().items()
            if name.isupper() and isinstance(value, (int, float))}
