"""Bayesian multiple-output directional quantile regression.

Estimation of directional quantile hyperplanes by MCMC under an asymmetric
Laplace working likelihood, depth-contour computation, prior elicitation for
spherical contours, asymptotic confidence intervals, and a Monte Carlo
simulation lab.
"""

__version__ = "0.1.0"

from .ald import HyperplaneParams, mixture_constants
from .contours import ContourPolygon, intersect_halfplanes, tau_contour, tau_contours, tube_slice, tukey_depth
from .geometry import Dataset, Direction, OrthoBasis, ProjectedData, orthonormal_complement, project, unit_directions
from .inference import asymptotic_ci, chain_diagnostics, naive_ci, posterior_mean, subgradient_diagnostics
from .optimize import FitResult, fit_check_loss, frequentist_fit
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
from .simlab import (
    DgpSpec,
    ExperimentConfig,
    conditional_params_oracle,
    dgp_sample,
    make_star_like,
    population_params_oracle,
)

# the library API: every name README and the benchmark use, and the roots,
# beside ``cli.main``, of what src/ holds (tests/test_reachability.py)
__all__ = [
    "HyperplaneParams", "mixture_constants",
    "ContourPolygon", "intersect_halfplanes", "tau_contour", "tau_contours", "tube_slice", "tukey_depth",
    "Dataset", "Direction", "OrthoBasis", "ProjectedData", "orthonormal_complement", "project",
    "unit_directions",
    "asymptotic_ci", "chain_diagnostics", "naive_ci", "posterior_mean", "subgradient_diagnostics",
    "FitResult", "fit_check_loss", "frequentist_fit",
    "normal_radius", "spherical_prior", "uniform_ball_radius",
    "Chain", "ConditionalDesign", "KernelSpec", "PriorSpec", "gibbs_conditional", "gibbs_unconditional",
    "sample_gig_half",
    "DgpSpec", "ExperimentConfig", "conditional_params_oracle", "dgp_sample", "make_star_like",
    "population_params_oracle",
    "ingest_csv",
]


def __getattr__(name):
    # ingest_csv is the CLI's reader; importing dirquant.cli only on first
    # use keeps `python -m dirquant.cli` from finding it already imported
    if name == "ingest_csv":
        from .cli import ingest_csv

        return ingest_csv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
