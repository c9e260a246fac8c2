"""Quantile regions and contours in the plane (k = 2).

A fitted hyperplane for direction u maps to the closed upper halfplane
(u - Gamma beta_y)' y >= alpha + beta_x' x0; intersecting those halfplanes
over a grid of directions yields the depth region whose boundary is the
quantile contour.  Intersection uses the classic angular-sweep deque
algorithm over directed boundary lines with the feasible side on the left.

A Bayes-mean contour and a tube slice run one chain per direction, through
the samplers' runner: the directions go in grid order, in chunks of at most
``samplers._ROW_BUDGET`` chain rows (``samplers._chunks``), one stacked
engine call per chunk (``samplers._isolated_chains``), and a chunk is
prepared (projection, design, init fit) only when it runs, so at most one
chunk of prepared chains is alive.  Each direction keeps the seed
``_direction_seed(seed, index)``, so every chain, posterior mean and polygon
is that of one chain per direction.  A chain that fails names its direction.

A frequentist contour set runs direction by direction instead: a direction's
design depends on u only, so ``tau_contours`` projects and prepares it once
(``optimize.CheckLossProblem``) and fits every tau on it, with one
direction's problem alive at a time.  Each polygon is byte for byte the one
that separate per-(tau, u) fits give.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import constants
from .ald import HyperplaneParams
from .errors import DomainError, NumericalError, ShapeError, UnboundedRegionError
from .geometry import Dataset, Direction, OrthoBasis, orthonormal_complement, unit_directions
from .optimize import _direction_problem, fit_prepared
from .samplers import (
    KernelSpec,
    PriorSpec,
    _chunks,
    _conditional_problem,
    _isolated_chains,
    _unconditional_problem,
    make_conditional_design,
    project,
)
from .inference import posterior_mean

__all__ = [
    "Halfplane",
    "ContourPolygon",
    "to_upper_halfplane",
    "intersect_halfplanes",
    "tau_contour",
    "tau_contours",
    "tukey_depth",
    "tube_slice",
    "polygon_area",
    "polygon_contains",
]


@dataclass(frozen=True)
class Halfplane:
    """Closed region {y in R^2 : normal' y >= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = np.asarray(self.normal, dtype=float)
        object.__setattr__(self, "normal", normal)
        if normal.shape != (2,):
            raise ShapeError("halfplane normal must be a 2-vector")
        if not np.all(np.isfinite(normal)) or np.linalg.norm(normal) <= 0:
            raise DomainError("halfplane normal must be finite and nonzero")

    def contains(self, point, tol: float = 0.0) -> bool:
        return float(self.normal @ np.asarray(point, dtype=float)) >= self.offset - tol


@dataclass(frozen=True)
class ContourPolygon:
    """Convex polygon (counterclockwise vertex ring); empty vertex list = empty region."""

    vertices: np.ndarray
    tau: float
    n_directions: int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "vertices", v)

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0


def polygon_area(vertices) -> float:
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_contains(polygon: ContourPolygon, point, tol: float = 1e-9) -> bool:
    """Membership in a convex counterclockwise polygon via edge cross products."""
    v = polygon.vertices
    if v.shape[0] < 3:
        return False
    p = np.asarray(point, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    edge = nxt - v
    rel = p - v
    cross = edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0]
    scale = np.maximum(np.linalg.norm(edge, axis=1), 1e-300)
    return bool(np.all(cross >= -tol * scale))


def to_upper_halfplane(
    theta: HyperplaneParams,
    direction: Direction,
    basis: OrthoBasis,
    x_eval=None,
) -> Halfplane:
    """Rewrite a fitted hyperplane as the closed upper halfplane it bounds."""
    if direction.k != 2:
        raise DomainError("halfplane mapping is defined for k = 2")
    normal = direction.u - basis.gamma @ theta.beta_y
    if np.linalg.norm(normal) <= constants.DET_EPS:
        raise NumericalError("slopes make the hyperplane normal degenerate")
    offset = theta.alpha
    if theta.beta_x.size:
        if x_eval is None:
            raise DomainError("x_eval is required when covariate slopes are present")
        offset = float(theta.alpha + np.dot(theta.beta_x, np.atleast_1d(x_eval)))
    return Halfplane(normal=normal, offset=float(offset))


def _line_point(h: Halfplane) -> np.ndarray:
    n2 = float(h.normal @ h.normal)
    return h.normal * (h.offset / n2)


def _line_dir(h: Halfplane) -> np.ndarray:
    # feasible side lies to the left of the directed boundary line
    return np.array([h.normal[1], -h.normal[0]])


def _cross(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _intersect_lines(h1: Halfplane, h2: Halfplane) -> np.ndarray:
    d1, d2 = _line_dir(h1), _line_dir(h2)
    p1, p2 = _line_point(h1), _line_point(h2)
    denom = _cross(d1, d2)
    if abs(denom) <= constants.DET_EPS:
        raise NumericalError("parallel boundary lines do not intersect")
    t = _cross(p2 - p1, d2) / denom
    return p1 + t * d1


def intersect_halfplanes(planes, tau: float = float("nan"), n_directions: int | None = None) -> ContourPolygon:
    """Intersection of closed halfplanes as a convex polygon.

    An empty intersection is a legal outcome and returns an empty polygon;
    an unbounded intersection raises UnboundedRegionError.
    """
    planes = list(planes)
    if len(planes) < 3:
        raise ShapeError("need at least 3 halfplanes")
    box = constants.BOUNDING_BOX
    padded = planes + [
        Halfplane(normal=np.array([1.0, 0.0]), offset=-box),
        Halfplane(normal=np.array([-1.0, 0.0]), offset=-box),
        Halfplane(normal=np.array([0.0, 1.0]), offset=-box),
        Halfplane(normal=np.array([0.0, -1.0]), offset=-box),
    ]

    def angle(h):
        d = _line_dir(h)
        a = np.arctan2(d[1], d[0])
        if a >= np.pi - 1e-12:  # keep the +/- pi seam on one side
            a -= 2.0 * np.pi
        return a

    padded.sort(key=angle)
    # among parallel same-direction halfplanes keep the most binding one
    kept = []
    for h in padded:
        if kept and abs(angle(kept[-1]) - angle(h)) <= 1e-15:
            nk = np.linalg.norm(kept[-1].normal)
            nh = np.linalg.norm(h.normal)
            if h.offset / nh > kept[-1].offset / nk:
                kept[-1] = h
            continue
        kept.append(h)

    def violates(h: Halfplane, a: Halfplane, b: Halfplane) -> bool:
        try:
            pt = _intersect_lines(a, b)
        except NumericalError:
            return True
        return float(h.normal @ pt) < h.offset - constants.DET_EPS * max(
            1.0, abs(h.offset)
        )

    dq: deque = deque()
    for h in kept:
        while len(dq) >= 2 and violates(h, dq[-1], dq[-2]):
            dq.pop()
        while len(dq) >= 2 and violates(h, dq[0], dq[1]):
            dq.popleft()
        if dq:
            d_new, d_last = _line_dir(h), _line_dir(dq[-1])
            if abs(_cross(d_last, d_new)) <= constants.DET_EPS and d_last @ d_new < 0:
                # antiparallel pair: empty strip unless they overlap
                mid = _line_point(dq[-1])
                if float(h.normal @ mid) < h.offset:
                    return ContourPolygon(
                        vertices=np.zeros((0, 2)), tau=tau, n_directions=n_directions or len(planes)
                    )
        dq.append(h)
    while len(dq) >= 3 and violates(dq[0], dq[-1], dq[-2]):
        dq.pop()
    while len(dq) >= 3 and violates(dq[-1], dq[0], dq[1]):
        dq.popleft()
    if len(dq) < 3:
        return ContourPolygon(vertices=np.zeros((0, 2)), tau=tau, n_directions=n_directions or len(planes))

    lines = list(dq)
    verts = []
    for a, b in zip(lines, lines[1:] + lines[:1]):
        try:
            verts.append(_intersect_lines(a, b))
        except NumericalError:
            continue
    verts = np.array(verts)
    if verts.shape[0] == 0:
        return ContourPolygon(vertices=np.zeros((0, 2)), tau=tau, n_directions=n_directions or len(planes))

    # deduplicate consecutive vertices
    keep = [0]
    for i in range(1, verts.shape[0]):
        if np.linalg.norm(verts[i] - verts[keep[-1]]) > constants.VERTEX_DEDUP_TOL:
            keep.append(i)
    if len(keep) > 1 and np.linalg.norm(verts[keep[-1]] - verts[keep[0]]) <= constants.VERTEX_DEDUP_TOL:
        keep.pop()
    verts = verts[keep]
    if np.max(np.abs(verts)) >= 0.5 * box:
        raise UnboundedRegionError("halfplane intersection is unbounded")
    if verts.shape[0] < 3 or polygon_area(verts) <= 0.0:
        return ContourPolygon(vertices=np.zeros((0, 2)), tau=tau, n_directions=n_directions or len(planes))
    return ContourPolygon(vertices=verts, tau=tau, n_directions=n_directions or len(planes))


def _direction_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1)[0])


def _direction_chains(prepare, dirs, n, n_draws, burn_in):
    """(chain, context) per direction, in order, from stacked engine calls.

    ``prepare(index)`` returns direction ``index``'s prepared chain and the
    context its caller needs.  Each chunk of ``samplers._chunks`` is prepared
    only when it runs, so at most one chunk of problems is alive.  Each chain
    keeps its own seed, so its bytes are those of a lone run.  The first
    failed chain raises: a ``NumericalError`` again, naming the direction,
    and any other exception as it is.
    """
    if n_draws <= burn_in:
        raise ShapeError("n_draws must exceed burn_in")
    for chunk in _chunks([n] * len(dirs)):
        prepared = [prepare(i) for i in chunk]
        chains = _isolated_chains([problem for problem, _ in prepared], n_draws, burn_in)
        for i, chain, (_, context) in zip(chunk, chains, prepared):
            if isinstance(chain, NumericalError):
                raise NumericalError(
                    f"chain of direction {i} (u={dirs[i].u.tolist()}, tau={dirs[i].tau}) "
                    f"failed: {chain}"
                ) from chain
            if isinstance(chain, Exception):
                raise chain
            yield chain, context


def _frequentist_fits(data: Dataset, column, basis: OrthoBasis) -> list:
    """One direction's hyperplane at each of ``column``'s taus.  The design
    [y_perp, x, 1] against y_u depends on u only, so it is projected and
    prepared once and fitted per tau; it is freed when this returns."""
    problem = _direction_problem(data, column[0], basis=basis)
    thetas = []
    for direction in column:
        fit = fit_prepared(problem, direction.tau)
        if not fit.converged:
            warnings.warn(
                f"frequentist fit did not converge (tau={direction.tau}, u={direction.u.tolist()}, "
                f"{fit.iterations} iterations); its hyperplane enters the contour as is",
                RuntimeWarning,
                stacklevel=3,
            )
        thetas.append(HyperplaneParams.from_vector(fit.theta, data.k, data.p))
    return thetas


def tau_contours(
    data: Dataset,
    taus,
    n_directions: int = constants.DEFAULT_N_DIRECTIONS,
    estimator: str = "bayes-mean",
    prior: PriorSpec | None = None,
    n_draws: int = constants.DEFAULT_N_DRAWS,
    burn_in: int = constants.DEFAULT_BURN_IN,
    seed: int = 0,
    x_eval=None,
) -> list[ContourPolygon]:
    """Quantile contours at each of ``taus``, in order, from one hyperplane
    fit per (tau, grid direction).

    ``estimator`` selects posterior means from independent per-direction
    chains (``"bayes-mean"``), run tau by tau, or deterministic check-loss
    fits (``"frequentist"``), run direction by direction: each direction's
    design is prepared once and fitted at every tau.  Every tau is checked
    before the first fit or chain.  A contour is the one ``tau_contour``
    gives for its tau alone.
    """
    if data.k != 2:
        raise DomainError("contours are computed for k = 2 only")
    if estimator not in ("bayes-mean", "frequentist"):
        raise DomainError(f"unknown estimator {estimator!r}")
    grid = unit_directions(n_directions)
    dirs = [[Direction(u=u, tau=tau) for u in grid] for tau in taus]
    bases = [orthonormal_complement(u) for u in grid]
    if not dirs:
        return []

    if estimator == "frequentist":
        columns = [_frequentist_fits(data, [row[j] for row in dirs], basis)
                   for j, basis in enumerate(bases)]
        thetas = list(zip(*columns))
    else:
        if prior is None:
            d_block = data.k + data.p
            prior = PriorSpec(mean=np.zeros(d_block), covariance=1000.0 * np.eye(d_block))
        thetas = []
        for row in dirs:
            def prepare(idx, row=row):
                return _unconditional_problem(data, row[idx], prior, seed=_direction_seed(seed, idx),
                                              basis=bases[idx]), None

            thetas.append([posterior_mean(chain)
                           for chain, _ in _direction_chains(prepare, row, data.n, n_draws, burn_in)])

    return [
        intersect_halfplanes(
            [to_upper_halfplane(theta, direction, basis, x_eval=x_eval)
             for theta, direction, basis in zip(row_thetas, row, bases)],
            tau=row[0].tau, n_directions=n_directions,
        )
        for row_thetas, row in zip(thetas, dirs)
    ]


def tau_contour(
    data: Dataset,
    tau: float,
    n_directions: int = constants.DEFAULT_N_DIRECTIONS,
    estimator: str = "bayes-mean",
    prior: PriorSpec | None = None,
    n_draws: int = constants.DEFAULT_N_DRAWS,
    burn_in: int = constants.DEFAULT_BURN_IN,
    seed: int = 0,
    x_eval=None,
) -> ContourPolygon:
    """Quantile contour from one hyperplane fit per grid direction:
    ``tau_contours`` at one tau."""
    return tau_contours(data, [tau], n_directions, estimator, prior, n_draws, burn_in, seed, x_eval)[0]


def tukey_depth(point, data: Dataset, n_directions: int = constants.DEFAULT_N_DIRECTIONS) -> float:
    """Directional approximation (from above) of the halfspace depth of a point."""
    if data.k != 2:
        raise DomainError("depth queries are computed for k = 2 only")
    point = np.asarray(point, dtype=float)
    best = 1.0
    for u in unit_directions(n_directions):
        mass = float(np.mean(data.y @ u <= float(u @ point)))
        best = min(best, mass)
    return best


def tube_slice(
    data: Dataset,
    tau: float,
    x0,
    kernel: KernelSpec,
    design_kind: str = "local-constant",
    n_directions: int = constants.DEFAULT_N_DIRECTIONS,
    prior: PriorSpec | None = None,
    n_draws: int = constants.DEFAULT_N_DRAWS,
    burn_in: int = constants.DEFAULT_BURN_IN,
    seed: int = 0,
) -> ContourPolygon:
    """Slice of the conditional quantile tube at covariate value x0."""
    if data.k != 2:
        raise DomainError("tube slices are computed for k = 2 only")
    if data.p < 1:
        raise DomainError("tube slices need at least one covariate")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dirs = [Direction(u=u, tau=tau) for u in unit_directions(n_directions)]
    bases = [orthonormal_complement(d.u) for d in dirs]

    def prepare(idx):
        projected = project(data, dirs[idx], bases[idx])
        design = make_conditional_design(projected, data.x, x0, design_kind)
        block_prior = prior
        if block_prior is None:
            block_prior = PriorSpec(mean=np.zeros(design.dim), covariance=1000.0 * np.eye(design.dim))
        problem = _conditional_problem(data, dirs[idx], design, kernel, block_prior,
                                       seed=_direction_seed(seed, idx), basis=bases[idx])
        return problem, design

    planes = []
    for idx, (chain, design) in enumerate(_direction_chains(prepare, dirs, data.n, n_draws, burn_in)):
        alpha, beta_y = design.params_at_x0(chain.post_burn().mean(axis=0))
        theta = HyperplaneParams(alpha=alpha, beta_y=beta_y, beta_x=None)
        planes.append(to_upper_halfplane(theta, dirs[idx], bases[idx]))
    return intersect_halfplanes(planes, tau=tau, n_directions=n_directions)
