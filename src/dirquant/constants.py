"""Numerical tolerances and defaults, centralized so tests and modules agree."""

# direction / basis checks
UNIT_NORM_TOL = 1e-12
ORTHO_TOL = 1e-10

# symmetric matrix / PD checks
SYMMETRY_TOL = 1e-10

# geometry of halfplane intersections
DET_EPS = 1e-12
VERTEX_DEDUP_TOL = 1e-9
BOUNDING_BOX = 1e9

# latent-scale guard in the Gibbs samplers
LATENT_FLOOR = 1e-12

# kernel-weight degeneracy threshold
WEIGHT_FLOOR = 1e-300

# smoothed check-loss continuation schedule
SMOOTHING_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

# sampler defaults (application-scale)
DEFAULT_N_DRAWS = 3000
DEFAULT_BURN_IN = 1000

# contour defaults
DEFAULT_N_DIRECTIONS = 32
