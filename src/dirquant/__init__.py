"""Bayesian multiple-output directional quantile regression.

Estimation of directional quantile hyperplanes by MCMC under an asymmetric
Laplace working likelihood, depth-contour computation, prior elicitation for
spherical contours, asymptotic confidence intervals, and a Monte Carlo
simulation lab.
"""

__version__ = "0.1.0"

from .ald import HyperplaneParams, ald_cdf, ald_logpdf, mixture_constants
from .contours import ContourPolygon, intersect_halfplanes, tau_contour, tau_contours, tube_slice, tukey_depth
from .geometry import Dataset, Direction, OrthoBasis, ProjectedData, check_loss, orthonormal_complement, project, unit_directions
from .inference import asymptotic_ci, chain_diagnostics, naive_ci, posterior_mean, subgradient_diagnostics
from .optimize import FitResult, frequentist_fit
from .priors import normal_radius, spherical_prior, uniform_ball_radius
from .samplers import (
    Chain,
    ConditionalDesign,
    KernelSpec,
    PriorSpec,
    gibbs_conditional,
    gibbs_unconditional,
    sample_gig_half,
)
from .simlab import DgpSpec, ExperimentConfig, dgp_sample, population_params_oracle
