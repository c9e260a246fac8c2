"""Quantile regions and contours in the plane (k = 2).

A fitted hyperplane for direction u maps to the closed upper halfplane
(u - Gamma beta_y)' y >= alpha + beta_x' x0; intersecting those halfplanes
over a grid of directions yields the depth region whose boundary is the
quantile contour.  Halfplanes are array rows (normal_x, normal_y, offset);
intersection uses the classic angular-sweep deque algorithm over directed
boundary lines with the feasible side on the left.  Depth is exact.

Contours run direction by direction: a direction's design [y_perp, x, 1]
depends on u only, so ``tau_contours`` projects and prepares it once
(``optimize.CheckLossProblem``) for every tau.  A frequentist contour set
fits every tau on it, with one direction's problem alive at a time.

A Bayes-mean contour set and a tube grid run one chain per (cell,
direction), a cell being a contour's tau or a tube slice's (tau, x0), through
one driver (``_direction_chains``): the directions go in grid order, in
chunks of whole directions, every cell's chain of each, of at most
``samplers._ROW_BUDGET`` chain rows (``samplers._chunks``), one stacked
engine call per chunk (``samplers._isolated_chains``).  A chunk is prepared
only when it runs, so at most one chunk of prepared chains is alive: each
direction is projected once, and its design and start problem are made once
for every tau (a tube's once per x0, kernel-weighted; each x0's weights,
which do not depend on u, are computed and checked before the first chain).
Each direction keeps the seed ``_direction_seed(seed, index)`` at every
cell, so its chains share one random stream, drawn once per sweep, and every
chain, posterior mean and polygon is that of one chain per (cell,
direction): a contour or tube slice is the one its cell gives alone.  A chain
that fails names its direction, tau and any x0.  A contour is a tube slice
with unit weights and no x0: every polygon, frequentist or Bayes, is made by
``_polygons``, byte for byte the one that separate per-(cell, u) fits or
chains give.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import cycle

import numpy as np

from . import constants
from .ald import HyperplaneParams
from .errors import DomainError, NumericalError, ShapeError, UnboundedRegionError
from .geometry import Dataset, Direction, OrthoBasis, orthonormal_complement, project, unit_directions
from .optimize import CheckLossProblem, _direction_design, _direction_problem, fit_prepared
from .samplers import (
    KernelSpec,
    PriorSpec,
    _chunks,
    _conditional_problem,
    _isolated_chains,
    _unconditional_problem,
    _vague_prior,
    _window_weights,
    make_conditional_design,
)
from .inference import posterior_mean, posterior_vector

__all__ = [
    "ContourPolygon",
    "to_upper_halfplane",
    "intersect_halfplanes",
    "tau_contour",
    "tau_contours",
    "tukey_depth",
    "tube_slice",
    "tube_slices",
    "polygon_area",
]


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


def to_upper_halfplane(
    theta: HyperplaneParams,
    direction: Direction,
    basis: OrthoBasis,
    x_eval=None,
) -> np.ndarray:
    """Rewrite a fitted hyperplane as the closed upper halfplane it bounds:
    the row (normal_x, normal_y, offset) of {y in R^2 : normal' y >= offset}."""
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
    return np.append(normal, float(offset))


def intersect_halfplanes(planes, tau: float = float("nan")) -> ContourPolygon:
    """Intersection of closed halfplanes as a convex polygon.

    ``planes`` holds m >= 3 rows (normal_x, normal_y, offset), each the
    region {y : normal' y >= offset}, and the polygon's ``n_directions`` is
    m.  An empty intersection is a legal outcome and returns an empty
    polygon; an unbounded intersection raises UnboundedRegionError.
    """
    rows = np.asarray(planes, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3 or rows.shape[0] < 3:
        raise ShapeError("halfplanes must be m >= 3 rows (normal_x, normal_y, offset)")
    m = rows.shape[0]
    box = constants.BOUNDING_BOX
    rows = np.concatenate([rows, [[1.0, 0.0, -box], [-1.0, 0.0, -box], [0.0, 1.0, -box], [0.0, -1.0, -box]]])
    normals, offsets = rows[:, :2], rows[:, 2]
    # Every dot product of two 2-vectors stays numpy's ``@``: written out as
    # n[0] * n[0] + n[1] * n[1] it rounds differently, because numpy's dot
    # fuses multiply-adds, and the vertices would change bytes.
    squares = np.array([n @ n for n in normals])
    if not np.all(np.isfinite(rows[:m])) or np.any(squares[:m] <= 0.0):
        raise DomainError("halfplane rows must be finite and their normals nonzero")
    reach = offsets / np.sqrt(squares)
    slack = offsets - constants.DET_EPS * np.maximum(1.0, np.abs(offsets))
    points = normals * (offsets / squares)[:, None]
    # feasible side lies to the left of the directed boundary line
    dirs = np.column_stack([normals[:, 1], -normals[:, 0]])
    angles = np.arctan2(dirs[:, 1], dirs[:, 0])
    angles[angles >= np.pi - 1e-12] -= 2.0 * np.pi  # keep the +/- pi seam on one side

    def vertex(a, b):
        """Where boundary lines a and b meet; None when they are parallel."""
        da, db = dirs[a], dirs[b]
        denom = float(da[0] * db[1] - da[1] * db[0])
        if abs(denom) <= constants.DET_EPS:
            return None
        gap = points[b] - points[a]
        return points[a] + (float(gap[0] * db[1] - gap[1] * db[0]) / denom) * da

    def violates(h, a, b) -> bool:
        pt = vertex(a, b)
        return pt is None or float(normals[h] @ pt) < slack[h]

    # among parallel same-direction halfplanes keep the most binding one
    kept = []
    for h in np.argsort(angles, kind="stable").tolist():
        if kept and abs(angles[kept[-1]] - angles[h]) <= 1e-15:
            if reach[h] > reach[kept[-1]]:
                kept[-1] = h
            continue
        kept.append(h)

    empty = ContourPolygon(vertices=np.zeros((0, 2)), tau=tau, n_directions=m)
    dq: deque = deque()
    for h in kept:
        while len(dq) >= 2 and violates(h, dq[-1], dq[-2]):
            dq.pop()
        while len(dq) >= 2 and violates(h, dq[0], dq[1]):
            dq.popleft()
        # antiparallel pair: empty strip unless they overlap
        if dq and dirs[dq[-1]] @ dirs[h] < 0 and vertex(dq[-1], h) is None:
            if float(normals[h] @ points[dq[-1]]) < offsets[h]:
                return empty
        dq.append(h)
    while len(dq) >= 3 and violates(dq[0], dq[-1], dq[-2]):
        dq.pop()
    while len(dq) >= 3 and violates(dq[-1], dq[0], dq[1]):
        dq.popleft()
    if len(dq) < 3:
        return empty

    lines = list(dq)
    verts = [vertex(a, b) for a, b in zip(lines, lines[1:] + lines[:1])]
    verts = np.array([v for v in verts if v is not None])
    if verts.shape[0] == 0:
        return empty

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
        return empty
    return ContourPolygon(vertices=verts, tau=tau, n_directions=m)


def _direction_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1)[0])


def _direction_chains(prepare, columns, n, n_draws, burn_in, places=("",)):
    """Per grid direction, in order, its hyperplanes, one per cell, from
    stacked engine calls.

    ``columns[i]`` holds direction ``i`` at each cell's tau (a tube's cells
    tau-major), and ``prepare(i)`` returns its prepared chains, one per cell,
    each with the function that maps its chain to its ``HyperplaneParams``.
    A chunk of ``samplers._chunks`` holds whole directions, every cell of
    each, so the chains of one direction, which share its seed, share one
    random stream.  Each chain's bytes are those of a lone run.  The first
    failed chain raises: a ``NumericalError`` again, naming the direction,
    tau and the cell's entry of ``places``, cycled (a tube's x0), and any
    other exception as it is.
    """
    if n_draws <= burn_in:
        raise ShapeError("n_draws must exceed burn_in")
    for chunk in _chunks([len(columns[0]) * n] * len(columns)):
        prepared = [prepare(i) for i in chunk]
        chains = _isolated_chains([problem for column in prepared for problem, _ in column],
                                  n_draws, burn_in)
        for i, column in zip(chunk, prepared):
            thetas = []
            for direction, place, (_, theta_of) in zip(columns[i], cycle(places), column):
                chain = next(chains)
                if isinstance(chain, NumericalError):
                    raise NumericalError(
                        f"chain of direction {i} (u={direction.u.tolist()}, tau={direction.tau}) "
                        f"failed{place}: {chain}"
                    ) from chain
                if isinstance(chain, Exception):
                    raise chain
                thetas.append(theta_of(chain))
            yield thetas


def _polygons(by_direction, columns, bases, x_eval=None) -> list[ContourPolygon]:
    """One polygon per cell, in order, from each grid direction's hyperplane
    at every cell (``by_direction``, an iterable in ``columns`` order)."""
    planes = [[to_upper_halfplane(theta, direction, basis, x_eval=x_eval) for theta, direction in zip(thetas, column)]
              for thetas, column, basis in zip(by_direction, columns, bases)]
    return [intersect_halfplanes(cell, tau=direction.tau) for cell, direction in zip(zip(*planes), columns[0])]


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
    chains (``"bayes-mean"``) or deterministic check-loss fits
    (``"frequentist"``).  Both run direction by direction: each direction's
    design is prepared once, and fitted, or fitted for its chains' starts, at
    every tau.  Every tau is checked before the first fit or chain.  A
    contour is the one ``tau_contour`` gives for its tau alone.
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

    columns = list(zip(*dirs))
    if estimator == "frequentist":
        by_direction = [_frequentist_fits(data, column, basis) for column, basis in zip(columns, bases)]
    else:
        if prior is None:
            prior = _vague_prior(data.k + data.p)

        def prepare(idx):
            # one design and start problem for every tau; with no more rows
            # than coefficients the chains start from the prior mean, unfitted
            column, basis = columns[idx], bases[idx]
            design, y = _direction_design(data, column[0], basis)
            start = CheckLossProblem(design, y) if data.n > data.k + data.p else None
            return [(_unconditional_problem(data, direction, prior, seed=_direction_seed(seed, idx),
                                            basis=basis, prepared=(design, y, start)), posterior_mean)
                    for direction in column]

        by_direction = _direction_chains(prepare, columns, data.n, n_draws, burn_in)
    return _polygons(by_direction, columns, bases, x_eval)


def tau_contour(data: Dataset, tau: float, *args, **kwargs) -> ContourPolygon:
    """Quantile contour from one hyperplane fit per grid direction:
    ``tau_contours`` at one tau, with its other arguments."""
    return tau_contours(data, [tau], *args, **kwargs)[0]


def tukey_depth(point, data: Dataset) -> float:
    """Exact halfspace (Tukey) depth of ``point`` in the rows of ``data.y``,
    as a share of n, by the angular sweep of Rousseeuw & Ruts (1996, AS 307):
    a closed halfplane through the point holds the fewest rows when its
    boundary lies strictly between two events (a row's angle seen from the
    point, or that plus pi), so the half-circle from each midpoint between
    neighbouring events is counted by binary search, O(n log n) per query.
    """
    if data.k != 2:
        raise DomainError("depth queries are computed for k = 2 only")
    point = np.asarray(point, dtype=float)
    if point.shape != (2,) or not np.all(np.isfinite(point)):
        raise ShapeError("the depth query point must be a finite 2-vector")
    v = data.y - point
    at_point = np.all(v == 0.0, axis=1)
    theta = np.sort(np.mod(np.arctan2(v[~at_point, 1], v[~at_point, 0]), 2.0 * np.pi))
    if theta.size == 0:
        return 1.0
    events = np.unique(np.mod(np.concatenate([theta, theta + np.pi]), 2.0 * np.pi))
    phi = (events + np.append(events[1:], events[0] + 2.0 * np.pi)) / 2.0
    # theta and theta + 2 pi, so each half-circle [phi, phi + pi] with phi in
    # [0, 3 pi) is one contiguous run of the sorted angles
    wrapped = np.concatenate([theta, theta + 2.0 * np.pi])
    counts = np.searchsorted(wrapped, phi + np.pi, side="right") - np.searchsorted(wrapped, phi, side="left")
    return float((counts.min() + np.count_nonzero(at_point)) / data.n)


def _slice_theta(design, chain) -> HyperplaneParams:
    """A tube chain's hyperplane at its design's x0."""
    return HyperplaneParams(*design.params_at_x0(posterior_vector(chain)))


def tube_slices(
    data: Dataset,
    taus,
    x0s,
    kernel: KernelSpec,
    design_kind: str = "local-constant",
    n_directions: int = constants.DEFAULT_N_DIRECTIONS,
    prior: PriorSpec | None = None,
    n_draws: int = constants.DEFAULT_N_DRAWS,
    burn_in: int = constants.DEFAULT_BURN_IN,
    seed: int = 0,
) -> list[list[ContourPolygon]]:
    """Slices of the conditional quantile tube at each of ``taus`` and each
    covariate value of ``x0s`` (two sequences), indexed [tau][x0], from one
    kernel-weighted chain per (tau, x0, grid direction).

    Runs direction by direction, as a Bayes contour set does: each x0's
    kernel weights are computed, and its window checked, before the first
    chain; each direction is projected once, and per x0 its design and
    weighted start problem are built once for every tau.  A slice is the one
    ``tube_slice`` gives for its (tau, x0) alone.
    """
    if data.k != 2:
        raise DomainError("tube slices are computed for k = 2 only")
    if data.p < 1:
        raise DomainError("tube slices need at least one covariate")
    x0s = [np.atleast_1d(np.asarray(x0, dtype=float)) for x0 in x0s]
    weights = [_window_weights(kernel, data.x, x0) for x0 in x0s]
    grid = unit_directions(n_directions)
    bases = [orthonormal_complement(u) for u in grid]
    columns = [[Direction(u=u, tau=tau) for tau in taus for _ in x0s] for u in grid]
    if not columns[0]:
        return [[] for _ in taus]

    def prepare(idx):
        # with no more rows than coefficients the chains start from the
        # prior mean, unfitted
        projected = project(data, columns[idx][0], bases[idx])
        designs = [make_conditional_design(projected, data.x, x0, design_kind) for x0 in x0s]
        starts = [CheckLossProblem(design.regressors, design.response, w) if data.n > design.dim else None
                  for design, w in zip(designs, weights)]
        block_prior = _vague_prior(designs[0].dim) if prior is None else prior
        cells = list(zip(designs, weights, starts))
        return [(_conditional_problem(data, direction, design, kernel, block_prior, seed=_direction_seed(seed, idx),
                                      prepared=(w, start)), partial(_slice_theta, design))
                for direction, (design, w, start) in zip(columns[idx], cycle(cells))]

    places = [f" at x0 = {x0.tolist()}" for x0 in x0s]
    polys = _polygons(_direction_chains(prepare, columns, data.n, n_draws, burn_in, places), columns, bases)
    return [polys[i:i + len(x0s)] for i in range(0, len(polys), len(x0s))]


def tube_slice(data: Dataset, tau: float, x0, kernel: KernelSpec, *args, **kwargs) -> ContourPolygon:
    """Slice of the conditional quantile tube at covariate value x0:
    ``tube_slices`` at one (tau, x0), with its other arguments."""
    return tube_slices(data, [tau], [x0], kernel, *args, **kwargs)[0][0]
