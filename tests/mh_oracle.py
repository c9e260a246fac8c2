"""Random-walk Metropolis-Hastings: an independent sampler for any posterior.

It shares no code with the Gibbs engine: it needs only a log likelihood and
the normal prior, so chains from the two can be compared on the same model.
``test_samplers.TestMetropolisHastings`` checks the sampler itself, and
criterion 9 of the acceptance suite compares it with the Gibbs sampler.
"""

from __future__ import annotations

import numpy as np

from dirquant import constants
from dirquant.errors import DomainError, NumericalError, ShapeError
from dirquant.samplers import Chain, PriorSpec

DEFAULT_PROPOSAL_SCALE = 0.1


class InitializationError(NumericalError):
    """Sampler cannot start from the supplied initial point."""


def metropolis_hastings(
    loglik,
    prior: PriorSpec,
    proposal_scale: float = DEFAULT_PROPOSAL_SCALE,
    n_draws: int = constants.DEFAULT_N_DRAWS,
    burn_in: int = constants.DEFAULT_BURN_IN,
    seed: int = 0,
    init=None,
) -> tuple[Chain, float]:
    """Random-walk Metropolis-Hastings with N(0, scale^2 I) proposals.

    The proposal is symmetric so its densities cancel in the acceptance
    ratio.  ``loglik`` is any callable theta -> float.  Returns the chain and
    its acceptance rate.
    """
    if n_draws <= burn_in:
        raise ShapeError("n_draws must exceed burn_in")
    if proposal_scale < 0:
        raise DomainError("proposal scale must be nonnegative")
    d = prior.dim
    theta = prior.mean.copy() if init is None else np.atleast_1d(np.asarray(init, dtype=float))
    if theta.size != d:
        raise ShapeError("initial point does not match the prior dimension")

    prior_prec = np.linalg.inv(prior.covariance)

    def logprior(v):
        c = v - prior.mean
        return -0.5 * float(c @ prior_prec @ c)

    cur_ll = float(loglik(theta))
    cur_lp = logprior(theta)
    if not (np.isfinite(cur_ll) and np.isfinite(cur_lp)):
        raise InitializationError("log likelihood or prior not finite at the initial point")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    draws = np.empty((n_draws, d))
    accepted = 0
    for m in range(n_draws):
        proposal = theta + proposal_scale * rng.standard_normal(d)
        prop_ll = float(loglik(proposal))
        prop_lp = logprior(proposal)
        if np.isfinite(prop_ll) and np.isfinite(prop_lp):
            log_ratio = (prop_ll + prop_lp) - (cur_ll + cur_lp)
            if np.log(rng.uniform()) <= log_ratio:
                theta, cur_ll, cur_lp = proposal, prop_ll, prop_lp
                accepted += 1
        else:
            rng.uniform()  # keep stream consumption independent of rejections
        draws[m] = theta
    chain = Chain(
        draws=draws,
        burn_in=burn_in,
        seed=int(seed),
        sampler="metropolis",
        names=tuple(f"theta_{j}" for j in range(d)),
    )
    return chain, accepted / n_draws
