"""Random-variate generation and the MCMC samplers.

Two samplers are provided: a Gibbs sampler for the unconditional model and a
kernel-weighted Gibbs sampler for the conditional model.  Both run one
engine (``_gibbs``) over stacked chains that share (n, d): a sampler
prepares its chain (``_unconditional_problem``, ``_conditional_problem``)
and runs it alone (``_run_chains``), and ``contours`` (a contour's or tube
slice's directions) and ``simlab`` (a study's replications) split many
prepared chains into chunks (``_chunks``), each run in one stacked call that
reruns a failed call's chains one at a time (``_isolated_chains``).  Each
chain draws the random stream of its own seed, so its bytes are the same
whatever chains share its call.  Chains of one call with equal seeds share
one stream (a contour direction's chains at several taus): each sweep draws
its normals, uniforms and theta noise once, from one Generator, and copies
them to the group's other chains.  Under a prior independent across
directions, one chain per direction samples the joint posterior of a
contour's hyperplanes.

The engine allocates its (B, n) work arrays once per call, the nu = 1/2 GIG
draw among them, holds each chain's mixture constants as a full row of
that shape, and skips the kernel-weight products when every weight is 1.
Callers that stack chains take at most ``_ROW_BUDGET`` chain rows
(chains x n) per call, because stacking pays up to about that many rows and
no further.  Per chain-sweep, measured on the engine at d = 2 with unit
weights (best of 18 interleaved runs, 2-vCPU x86_64 host shared with other
work, numpy 2.4, one BLAS thread): 56/7.2/7.4/8.1 us at n = 1e2 for
B = 1/40/163/655; 96/43/47/47/50 us at n = 1e3 for B = 1/8/16/32/65;
137/88/92/95/99 us at n = 2e3 for B = 1/4/8/16/32; 417/427/454 us at
n = 1e4 for B = 1/2/4.  The engine before the bit-select GIG kernel and
the full-row constants took 55/7.7/7.1/8.4, 103/50/48/51/55,
151/100/98/101/108 and 449/460/463 us in the same runs.  Every stacked
chain adds its rows to the call's memory, so the budget also bounds peak
RSS.

Latent-scale draws use the nu = 1/2 generalized inverse Gaussian, sampled
exactly through the reciprocal inverse-Gaussian identity by one kernel
(``_gig_half_kernel``) that works in caller buffers and takes each lane's
root by a bit select, not a masked divide; ``sample_gig_half``
takes one Generator, or one per row of a 2-D draw, so that stacked chains
keep their own streams.  The conditional
sampler carries the unit-exponential latent variable internally (the
kernel-scaled latent is a deterministic rescaling of it, so the chain law is
identical) because that parametrization stays finite for arbitrarily small
kernel weights.

Reproducibility contract: identical (seed, configuration, data) produce
bit-identical chains at a fixed BLAS thread count: a BLAS may split a
matrix product's sums by thread, and the start fit of a chain of at least
``optimize.PREPROCESS_ROWS`` rows reduces the full data by such products.
Parameter order inside theta is (beta_y, beta_x, alpha) for the
unconditional model and design order for conditional models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import constants
from .ald import mixture_constants
from .errors import (
    DegenerateWindowError,
    DomainError,
    NumericalError,
    ShapeError,
)
from .geometry import Dataset, Direction, OrthoBasis
from .optimize import CheckLossProblem, _direction_design, _fit_schedule

__all__ = [
    "PriorSpec",
    "Chain",
    "KernelSpec",
    "ConditionalDesign",
    "sample_gig_half",
    "gibbs_unconditional",
    "gibbs_conditional",
    "kernel_weights",
    "make_conditional_design",
    "default_bandwidth",
    "unconditional_param_names",
]


@dataclass(frozen=True)
class PriorSpec:
    """Normal prior N(mean, covariance) for a parameter block."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        d = mean.size
        if cov.shape != (d, d):
            raise ShapeError(f"covariance must be {d} x {d}, got {cov.shape}")
        if np.max(np.abs(cov - cov.T)) > constants.SYMMETRY_TOL:
            raise ShapeError("prior covariance is not symmetric")
        if np.min(np.linalg.eigvalsh(cov)) <= 0:
            raise ShapeError("prior covariance is not positive definite")

    @property
    def dim(self) -> int:
        return self.mean.size


def _vague_prior(dim: int) -> PriorSpec:
    """The default prior of a block of ``dim`` coefficients, N(0, 1000 I)."""
    return PriorSpec(mean=np.zeros(dim), covariance=1000.0 * np.eye(dim))


@dataclass(frozen=True)
class Chain:
    """Posterior draws plus the metadata needed to reproduce them."""

    draws: np.ndarray
    burn_in: int
    seed: int
    sampler: str
    acceptance_rate: float = 1.0
    names: tuple = ()
    layout: tuple | None = None  # (k, p) when coordinates are (beta_y, beta_x, alpha)

    def __post_init__(self):
        draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        object.__setattr__(self, "draws", draws)
        if not (draws.shape[0] > self.burn_in >= 0):
            raise ShapeError("need more draws than burn-in")
        if not np.all(np.isfinite(draws)):
            raise NumericalError("chain contains non-finite draws")
        if self.names and len(self.names) != draws.shape[1]:
            raise ShapeError("one name per chain coordinate required")

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    def post_burn(self) -> np.ndarray:
        return self.draws[self.burn_in :]


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel weight function of bandwidth h, the normal density
    (2 pi h^2)^(-p/2) exp(-|x - x0|^2 / (2 h^2))."""

    bandwidth: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise DomainError("bandwidth must be positive")


@dataclass(frozen=True)
class ConditionalDesign:
    """Regressors for a conditional fit at covariate value x0, with the
    response y_u of the projection they came from.

    local-constant rows are [1, y_perp']; local-bilinear rows are the
    Kronecker product [1, y_perp'] (x) [1, (x - x0)'].
    """

    kind: str
    x0: np.ndarray
    regressors: np.ndarray
    k: int
    p: int
    response: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        object.__setattr__(self, "regressors", np.atleast_2d(np.asarray(self.regressors, dtype=float)))
        object.__setattr__(self, "response", np.asarray(self.response, dtype=float))
        if self.kind not in ("local-constant", "local-bilinear"):
            raise DomainError(f"unknown conditional design kind {self.kind!r}")
        q = self.k if self.kind == "local-constant" else self.k * (self.p + 1)
        if self.regressors.shape[1] != q:
            raise ShapeError(f"{self.kind} design must have {q} columns")
        if self.response.shape != (self.regressors.shape[0],):
            raise ShapeError("response length does not match the design rows")

    @property
    def dim(self) -> int:
        return self.regressors.shape[1]

    def names(self) -> tuple:
        if self.kind == "local-constant":
            return ("alpha",) + tuple(f"beta_y_{j}" for j in range(self.k - 1))
        base = ["alpha"] + [f"beta_x_{l}" for l in range(self.p)]
        out = list(base)
        for j in range(self.k - 1):
            out.append(f"beta_y_{j}")
            out.extend(f"beta_y_{j}.x_{l}" for l in range(self.p))
        return tuple(out)

    def params_at_x0(self, theta) -> tuple[float, np.ndarray]:
        """Intercept and orthogonal-response slopes of the hyperplane at x0."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.dim:
            raise ShapeError("parameter vector does not match the design")
        if self.kind == "local-constant":
            return float(theta[0]), theta[1 : self.k]
        step = self.p + 1
        return float(theta[0]), theta[step :: step][: self.k - 1]


def unconditional_param_names(k: int, p: int) -> tuple:
    return tuple(f"beta_y_{j}" for j in range(k - 1)) + tuple(
        f"beta_x_{l}" for l in range(p)
    ) + ("alpha",)


# ---------------------------------------------------------------------------
# random variates


def sample_gig_half(a, b, rng, size=None, *, out=None):
    """Draw from the nu = 1/2 generalized inverse Gaussian distribution.

    The target density is proportional to x^(-1/2) * exp(-(a^2/x + b^2 x)/2)
    on x > 0.  The reciprocal of such a variable is inverse Gaussian with
    mean b/a and shape b^2, which is sampled exactly by the
    Michael-Schucany-Haas method; a = 0 degenerates to a Gamma(1/2) variable.
    Requires b > 0 (the density is not normalizable at b = 0 for this nu)
    and a >= 0.  ``rng`` is one Generator, or a sequence of them with one per
    row of a 2-D draw; each row then takes its normals and then its uniforms
    from its own Generator, row by row.  ``out``, a ``_GigWork`` of the
    draw's shape, lends the draw its buffers and holds it on return, so a
    caller that draws repeatedly (the Gibbs engine) allocates nothing per
    draw; the values are the same either way.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # one pass each; fmin skips NaN as the comparisons do (np.min would not)
    a_min = np.fmin.reduce(a, axis=None, initial=np.inf)
    b_min = np.fmin.reduce(b, axis=None, initial=np.inf)
    if a_min < 0 or b_min <= 0:
        if a_min < 0 or b_min < 0:
            raise DomainError("GIG parameters must be nonnegative")
        raise DomainError("nu = 1/2 GIG requires b > 0 (density not normalizable at b = 0)")
    scalar = a.ndim == 0 and b.ndim == 0 and size is None
    if size is None:
        shape = np.broadcast(a, b).shape
    else:
        shape = (size,) if np.isscalar(size) else tuple(size)
        np.broadcast_to(a, shape), np.broadcast_to(b, shape)  # parameters must fit size
    if out is not None and out.u.shape != shape:
        raise ShapeError(f"GIG workspace has shape {out.u.shape}, the draw {shape}")

    # 0-d draws become 1-d so the in-place steps of the kernel apply
    work = _GigWork(shape or (1,)) if out is None else out
    if isinstance(rng, (list, tuple)):
        if len(shape) != 2 or len(rng) != shape[0]:
            raise ShapeError("a sequence of Generators needs one per row of a 2-D draw")
        copied = {row for row, _ in work.copies}
        for j, (g, nu_j, u_j) in enumerate(zip(rng, work.nu, work.u)):
            if j not in copied:
                g.standard_normal(out=nu_j)
                g.random(out=u_j)
        for row, source in work.copies:
            np.copyto(work.nu[row], work.nu[source])
            np.copyto(work.u[row], work.u[source])
    else:
        work.nu[...] = rng.standard_normal(shape)
        work.u[...] = rng.random(shape)  # the values and stream of rng.uniform(size=shape)
    x = _gig_half_kernel(a, b, work)
    if scalar:
        return float(x[0])
    return x.reshape(shape)


class _GigWork:
    """Buffers of one shape for ``_gig_half_kernel``: the normals ``nu`` and
    uniforms ``u`` it reads, and its scratch ``t``, ``root`` and ``accept``
    (1 or 0 per lane, as uint64).  The draw is returned in ``u``; ``nu``,
    ``t`` and ``root`` are free between draws.

    ``copies`` holds (row, source) pairs of a 2-D draw whose row repeats the
    random stream of an earlier source row (chains of equal seed): a draw
    takes the source row's normals and uniforms from its Generator and copies
    them, and never draws from the copying row's Generator."""

    def __init__(self, shape, copies=()):
        self.nu, self.u, self.t, self.root = (np.empty(shape) for _ in range(4))
        self.small, self.accept = np.empty(shape, dtype=bool), np.empty(shape, dtype=np.uint64)
        self.copies = tuple(copies)


def _gig_half_kernel(a, b, work):
    """The nu = 1/2 GIG arithmetic over ``work.nu`` and ``work.u``, in place;
    returns the draw, which is ``work.u``.  ``a`` and ``b`` broadcast to the
    buffers' shape."""
    nu, u, t, root = work.nu, work.u, work.t, work.root
    # where a <= b * 1e-150 the gamma limit (nu / b)^2 replaces the draw, and
    # ab and ratio hold placeholders; only then is nu needed after y = nu^2
    small = np.less_equal(a, np.multiply(b, 1e-150, out=root), out=work.small)
    any_small = small.any()
    y = np.multiply(nu, nu, out=None if any_small else nu)
    np.multiply(a, b, out=t)
    if any_small:
        np.copyto(t, 1.0, where=small)
    t *= 4.0
    t *= y  # 4ab * y
    np.multiply(y, y, out=root)
    root += t
    np.sqrt(root, out=root)
    # h = T/mu for the smaller inverse-Gaussian root; the rationalized form
    # 4ab*y / (y + root)^2 stays exact when 4ab*y underflows next to y^2
    denom = np.add(y, root, out=root)
    denom *= denom
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.divide(t, denom, out=t)
    if not y.all():
        h[y == 0.0] = 1.0
    bound = np.add(1.0, h, out=denom)
    accept = np.less_equal(u, np.divide(1.0, bound, out=bound), out=work.accept)
    ratio = np.divide(a, b, out=root)
    if any_small:
        np.copyto(ratio, 1.0, where=small)
    x = np.multiply(ratio, h, out=u)
    # ratio / h over every lane, then x = ratio / h where accepted, else
    # ratio * h, by a bit select, x ^= (x ^ q) * accept: a masked divide
    # runs about five times slower per element than a full one.  A lane
    # that rejects has h > 0 (h = 0 always accepts), so its discarded
    # quotient can only overflow
    with np.errstate(over="ignore"):
        quotient = np.divide(ratio, h, out=h).view(np.uint64)
    bits = x.view(np.uint64)
    quotient ^= bits
    quotient *= accept
    bits ^= quotient
    if any_small:
        np.divide(nu, b, out=nu)
        np.copyto(x, np.multiply(nu, nu, out=nu), where=small)
    return x


# ---------------------------------------------------------------------------
# Gibbs machinery

# chain rows (chains x observations) per engine call (the sweep in the
# module docstring)
_ROW_BUDGET = 16_384


def _gibbs(y, design, weights, taus, priors, thetas, rngs, n_draws):
    """The Gibbs engine over B independent chains that share (n, d).

    ``y`` and the kernel ``weights`` are (B, n) and ``design`` is (B, n, d);
    ``taus``, ``priors``, the start points ``thetas`` and ``rngs`` hold one
    entry per chain.  A chain's ``rngs`` entry is a Generator, and one
    Generator may serve several chains; or it is the position of an earlier
    chain whose entry is a Generator, and the chain repeats that chain's
    random stream (chains of equal seed).  Each sweep draws every chain's
    latents, then every chain's theta, in chain order, so a lone chain
    consumes its stream exactly like a standalone run and chains sharing a
    Generator interleave chain by chain; a repeating chain's normals and
    uniforms are copied from its source's, so they are drawn once per sweep.
    The (B, n) work arrays are allocated once per call, and the kernel-weight
    products are skipped when every weight is 1 (they would not change a bit).
    Returns the draws as (n_draws, B, d).
    """
    n_chains, n, d = design.shape
    copies = [(j, source) for j, source in enumerate(rngs) if isinstance(source, int)]
    rngs = [rngs[r] if isinstance(r, int) else r for r in rngs]
    mcs = [mixture_constants(tau) for tau in taus]
    consts = np.array([(mc.eta, mc.gamma, mc.gamma**2, np.sqrt(2.0 + mc.eta**2 / mc.gamma**2))
                       for mc in mcs])
    # each chain's constants fill its row: against (B, 1) columns every
    # (B, n) product runs about 1.6 times slower
    eta, gamma, gam2, b_lat = (np.repeat(col[:, None], n, axis=1) for col in consts.T)
    precs = [np.linalg.inv(prior.covariance) for prior in priors]
    prior_prec = np.array(precs)
    # theta, the right-hand side and the noise are kept as (B, d, 1) columns
    prior_rhs = np.array([prec @ prior.mean for prec, prior in zip(precs, priors)])[:, :, None]
    # the loop-invariant pieces, and the work arrays every sweep reuses
    design_t = design.transpose(0, 2, 1)
    unit = bool((weights == 1.0).all())
    kw2, kwy = (1.0, y) if unit else (weights * weights, weights * y)
    fit = np.empty((n_chains, n, 1))
    scaled = np.empty(design.shape)  # design * kw^2 / (gamma^2 w)
    gig = _GigWork((n_chains, n), copies)
    theta = np.array(thetas, dtype=float)[:, :, None]
    noise = np.empty((n_chains, d, 1))
    copied = {j for j, _ in copies}
    noise_draws = [(rng, noise[j, :, 0]) for j, rng in enumerate(rngs) if j not in copied]
    out = np.empty((n_draws, n_chains, d))
    for m in range(n_draws):
        a_lat = np.matmul(design, theta, out=fit)[:, :, 0]
        np.subtract(y, a_lat, out=a_lat)
        np.abs(a_lat, out=a_lat)
        if not unit:
            a_lat *= weights
        a_lat /= gamma  # kw * |y - design @ theta| / gamma
        w = sample_gig_half(a_lat, b_lat, rngs, out=gig)
        np.maximum(w, constants.LATENT_FLOOR, out=w)
        # a_lat's buffer, and the GIG scratch, are free until the next sweep
        gw = np.multiply(gam2, w, out=a_lat)
        t = np.divide(kw2, gw, out=gig.t)
        for j in range(d):
            np.multiply(design[:, :, j], t, out=scaled[:, :, j])
        prec = prior_prec + np.matmul(scaled.transpose(0, 2, 1), design)
        resp = np.multiply(eta, w, out=w)
        np.subtract(kwy, resp, out=resp)
        if not unit:
            resp *= weights
        resp /= gw  # kw * (kw * y - eta * w) / (gamma^2 * w)
        rhs = prior_rhs + np.matmul(design_t, resp[:, :, None])
        try:
            chol = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError as exc:
            # the stacked call fails as a whole; name the first chain that fails
            for j, prec_j in enumerate(prec):
                try:
                    np.linalg.cholesky(prec_j)
                except np.linalg.LinAlgError:
                    raise NumericalError(
                        f"conditional precision not positive definite in block {j} "
                        f"(sweep {m}): diag={np.diag(prec_j)!r}"
                    ) from exc
            raise
        theta = np.linalg.solve(prec, rhs)
        for rng, z in noise_draws:
            rng.standard_normal(out=z)
        for j, source in copies:
            noise[j] = noise[source]
        theta += np.linalg.solve(chol.transpose(0, 2, 1), noise)
        out[m] = theta[:, :, 0]
    return out


# a chain starts from the check-loss fit through this many stages of the
# smoothing schedule (optimize docstring): burn-in does the rest
_INIT_STAGES = 3


def _resolve_init(init, design, y, direction, weights, prior, prepared=None):
    """The chain's start: ``init``, else the check-loss fit on ``prepared``
    (the ``CheckLossProblem`` of this design, response and weights) or on a
    problem prepared here, else, with no more rows than coefficients, the
    prior mean."""
    if init is not None:
        vec = np.atleast_1d(np.asarray(init, dtype=float))
        if vec.size != design.shape[1]:
            raise ShapeError("initial point does not match the parameter dimension")
        return vec
    n, d = design.shape
    if n > d:
        stages = constants.SMOOTHING_SCHEDULE[:_INIT_STAGES]
        problem = CheckLossProblem(design, y, weights) if prepared is None else prepared
        fit = _fit_schedule(problem, direction.tau, stages)
        if not fit.converged:
            warnings.warn(
                f"check-loss fit for the initial point did not converge (tau={direction.tau}, "
                f"u={direction.u.tolist()}, {fit.iterations} iterations over the smoothing "
                f"stages eps = {', '.join(f'{eps:g}' for eps in stages)}); the chain starts "
                "from its last iterate",
                RuntimeWarning,
                stacklevel=4,
            )
        return np.asarray(fit.theta, dtype=float)
    return prior.mean.copy()


def _rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


@dataclass(frozen=True)
class _ChainProblem:
    """One Gibbs chain, ready for the engine: response ``y`` and kernel
    ``weights`` (n,), ``design`` (n, d), and the chain's tau, prior, start
    point and seed, with the names its draws carry."""

    y: np.ndarray
    design: np.ndarray
    weights: np.ndarray
    tau: float
    prior: PriorSpec
    theta0: np.ndarray
    seed: int
    sampler: str
    names: tuple
    layout: tuple | None = None


def _unconditional_problem(data, direction, prior, seed=0, init=None, basis=None,
                           prepared=None) -> _ChainProblem:
    """The chain ``gibbs_unconditional`` runs: design [y_perp, x, 1] and unit
    weights.  ``prepared``, direction u's ``CheckLossProblem``
    (``optimize._direction_problem``), lends the chain its design, response
    and start problem, so the chains of one u at several taus project,
    check and standardize it once."""
    k = direction.k
    if data is None:
        p = prior.dim - k
        if p < 0:
            raise ShapeError("prior dimension below the response dimension")
        y = np.zeros(0)
        design = np.zeros((0, prior.dim))
    else:
        p = data.p
        if prior.dim != k + p:
            raise ShapeError(f"prior dimension must be {k + p}, got {prior.dim}")
        design, y = (_direction_design(data, direction, basis) if prepared is None
                     else (prepared.z, prepared.y))
    theta0 = _resolve_init(init, design, y, direction, None, prior, prepared)
    weights = np.broadcast_to(1.0, y.shape)  # unit weights, without a buffer
    return _ChainProblem(y, design, weights, direction.tau, prior, theta0, int(seed),
                         "gibbs-unconditional", unconditional_param_names(k, p), (k, p))


def _run_chains(problems, n_draws, burn_in):
    """Run prepared chains that share (n, d) through one engine call, each on
    the stream of its own seed; returns one Chain per problem.  Chains of
    equal seed draw identical streams, so they share one: the first takes a
    Generator of the seed and the others repeat it (``_gibbs``)."""
    first = {}
    for j, q in enumerate(problems):
        first.setdefault(q.seed, j)
    rngs = [_rng_from_seed(q.seed) if first[q.seed] == j else first[q.seed]
            for j, q in enumerate(problems)]
    draws = _gibbs(np.array([q.y for q in problems]), np.array([q.design for q in problems]),
                   np.array([q.weights for q in problems]), [q.tau for q in problems],
                   [q.prior for q in problems], [q.theta0 for q in problems], rngs, n_draws)
    return [
        Chain(draws=np.ascontiguousarray(draws[:, j]), burn_in=burn_in, seed=q.seed,
              sampler=q.sampler, acceptance_rate=1.0, names=q.names, layout=q.layout)
        for j, q in enumerate(problems)
    ]


def _isolated_chains(problems, n_draws, burn_in):
    """Chains of problems that share (n, d), from one engine call.

    Yields a Chain, or the exception that failed it, per problem, in order.
    If the stacked call raises, each chain is rerun alone at B = 1 as it is
    reached, so that only a failing chain fails, with its own error (a
    ``NumericalError`` then names block 0 and its sweep), and its siblings
    keep the bytes they would have had.
    """
    try:
        chains = _run_chains(problems, n_draws, burn_in)
    except Exception as exc:
        chains = [exc] if len(problems) == 1 else None
    if chains is not None:
        yield from chains
        return
    for problem in problems:
        try:
            chain = _run_chains([problem], n_draws, burn_in)[0]
        except Exception as exc:
            chain = exc
        yield chain


def _chunks(sizes, workers=1):
    """Positions of items split into engine chunks.

    An item is a chain, or chains that must share a call (a contour
    direction's chains at every tau), and ``sizes`` holds its chain rows.
    Items of one size are taken in order and split into chunks of at most
    ``_ROW_BUDGET`` chain rows (at least one item), and into at least
    ``workers`` chunks where there are that many items.
    """
    by_n = {}
    for i, n in enumerate(sizes):
        by_n.setdefault(n, []).append(i)
    chunks = []
    for n, positions in by_n.items():
        size = max(1, min(_ROW_BUDGET // max(n, 1), -(-len(positions) // workers)))
        chunks.extend(positions[i:i + size] for i in range(0, len(positions), size))
    return chunks


def gibbs_unconditional(
    data: Dataset | None,
    direction: Direction,
    prior: PriorSpec,
    n_draws: int = constants.DEFAULT_N_DRAWS,
    burn_in: int = constants.DEFAULT_BURN_IN,
    seed: int = 0,
    init=None,
    basis: OrthoBasis | None = None,
) -> Chain:
    """Gibbs sampler for one directional quantile hyperplane.

    Alternates latent-scale draws (one nu = 1/2 GIG variable per
    observation) with an exact conjugate normal draw of theta.  ``data=None``
    runs the sampler with zero observations, i.e. draws from the prior.
    Initialized at ``init`` or, by default, at the check-loss fit through
    the first ``_INIT_STAGES`` stages of the smoothing schedule.
    """
    if n_draws <= burn_in:
        raise ShapeError("n_draws must exceed burn_in")
    problem = _unconditional_problem(data, direction, prior, seed, init, basis)
    return _run_chains([problem], n_draws, burn_in)[0]


def kernel_weights(kernel: KernelSpec, x, x0) -> np.ndarray:
    """Gaussian kernel weights K_h(x_i - x0) for each covariate row."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape[1] != x0.size:
        raise ShapeError("x0 dimension does not match the covariates")
    h = kernel.bandwidth
    sq = np.sum((x - x0) ** 2, axis=1)
    return (2.0 * np.pi * h * h) ** (-0.5 * x0.size) * np.exp(-0.5 * sq / (h * h))


def _window_weights(kernel: KernelSpec, x, x0) -> np.ndarray:
    """``kernel_weights``, refused with ``DegenerateWindowError`` when every
    weight lies below ``constants.WEIGHT_FLOOR``: no row carries mass."""
    weights = kernel_weights(kernel, x, x0)
    if float(np.max(weights, initial=0.0)) < constants.WEIGHT_FLOOR:
        raise DegenerateWindowError(f"all kernel weights underflowed at x0 = {np.atleast_1d(x0).tolist()}")
    return weights


# the constant c of default_bandwidth's rule
_BANDWIDTH_RULE = 9.0


def default_bandwidth(x) -> float:
    """Bandwidth sqrt(c * var(x) * n^(-1/5)) used by the conditional model."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if n < 2:
        raise DomainError("bandwidth rule needs at least two observations")
    var = float(np.mean(np.var(x, axis=0, ddof=1)))
    return float(np.sqrt(_BANDWIDTH_RULE * var * n ** (-1.0 / 5.0)))


def make_conditional_design(projected, x, x0, kind: str) -> ConditionalDesign:
    """Build the regressor matrix of a conditional fit at x0."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = projected.n
    if x.shape[0] != n:
        raise ShapeError("covariate rows do not match the projected data")
    if x.shape[1] != x0.size:
        raise ShapeError("x0 dimension does not match the covariates")
    k = projected.y_perp.shape[1] + 1
    p = x.shape[1]
    a = np.column_stack([np.ones(n), projected.y_perp])
    if kind == "local-constant":
        regressors = a
    elif kind == "local-bilinear":
        bmat = np.column_stack([np.ones(n), x - x0])
        regressors = np.einsum("ni,nj->nij", a, bmat).reshape(n, -1)
    else:
        raise DomainError(f"unknown conditional design kind {kind!r}")
    return ConditionalDesign(kind=kind, x0=x0, regressors=regressors, k=k, p=p,
                             response=projected.y_u)


def _conditional_problem(data, direction, design, kernel, prior, seed=0, init=None) -> _ChainProblem:
    """The chain ``gibbs_conditional`` runs: the design's regressors and
    response, and the kernel weights K_h(x_i - x0)."""
    if prior.dim != design.dim:
        raise ShapeError(f"prior dimension must be {design.dim}, got {prior.dim}")
    if design.regressors.shape[0] != data.n:
        raise ShapeError("design rows do not match the data")
    weights = _window_weights(kernel, data.x, design.x0)
    theta0 = _resolve_init(init, design.regressors, design.response, direction, weights, prior)
    return _ChainProblem(design.response, design.regressors, weights, direction.tau, prior, theta0,
                         int(seed), "gibbs-conditional", design.names())


def gibbs_conditional(
    data: Dataset,
    direction: Direction,
    design: ConditionalDesign,
    kernel: KernelSpec,
    prior: PriorSpec,
    n_draws: int = constants.DEFAULT_N_DRAWS,
    burn_in: int = constants.DEFAULT_BURN_IN,
    seed: int = 0,
    init=None,
) -> Chain:
    """Kernel-weighted Gibbs sampler for a conditional quantile fit at x0.

    Weights are always computed on the covariates, K_h(x_i - x0).  With all
    weights equal to one this is the same Markov kernel as the unconditional
    sampler on the same design.
    """
    if n_draws <= burn_in:
        raise ShapeError("n_draws must exceed burn_in")
    problem = _conditional_problem(data, direction, design, kernel, prior, seed, init)
    return _run_chains([problem], n_draws, burn_in)[0]
