"""Frequentist check-loss minimizers.

These serve two roles: MCMC initialization and an estimation oracle that is
independent of the samplers.  The check loss sum_i w_i rho_tau(r_i) is a
linear program in theta, and every fit (`fit_prepared`, which chain starts,
`fit_check_loss`, `frequentist_fit`, frequentist contours and simlab's
oracles all reach) runs the whole continuation schedule,
constants.SMOOTHING_SCHEDULE, and returns its exact minimizer when one can
be certified: the vertex through d rows of the problem.  Inputs are
standardized internally, so the schedule and the certificate see one scale,
and "the problem" below is the standardized one.

The solver replaces the kinked loss with a Huberized version and shrinks the
smoothing width eps over the schedule, running a damped
(Levenberg-regularized) Newton at each stage.  After each stage with
eps <= _VERTEX_EPS = 1e-3, the solve tries a vertex (finite
smoothing: Madsen & Nielsen 1993, SIAM J. Optim. 3(2); Chen 2007, J. Comput.
Graph. Statist. 16(1)):

1. Candidates: the d-subsets of the _VERTEX_ROWS = 16 rows whose residuals
   lie nearest 0.  Every other row is held on its side of the stage's
   theta, where its loss is linear, and the subset whose vertex minimizes
   that model's loss is picked.
2. theta = solve(zs[S], ys[S]), S in increasing row order.
3. Certificate, the Koenker-Bassett conditions on every row: each residual
   off S is nonzero beyond a bound on its rounding, and the multipliers v
   of zs[S]' v = -sum_{i not in S} z_i w_i (tau - 1[r_i < 0]) lie strictly
   inside [w_j (tau - 1), w_j tau], with slack beyond a bound on theirs.
   Then the exact vertex is the unique minimizer: every direction leaves it
   uphill.
4. A certified vertex returns at once, converged.  Otherwise the next stage
   runs, and a solve that never certifies (ties at the optimum, a basis row
   of zero weight) returns its last iterate, as the schedule alone did.

A certified fit's bytes depend only on the problem and its basis, not on the
path to it.

The rounding bounds (``_certify``).  eps is float64's epsilon, zb = zs[S],
count the number of rows the problem stands for, zmax = max |zs|,
ymax = max |ys|, sw = sum w and gamma_k = k eps / (1 - k eps) <= 2 k eps.
LU with partial pivoting solves (zb + dZ) theta = ys[S] with
||dZ|| <= gamma_3d || |L||U| || <= 2 c_d eps ||zb||
(c_d = 3d (1 + (d^2 - d) 2^d), from growth factor 2^(d-1); Higham,
Accuracy and Stability of Numerical Algorithms, 9.3), so theta lies within
4 c_d eps ||M|| ||zb|| ||theta|| (infinity norms) of the exact vertex, M
the computed inverse of zb, whose norm is within a factor 2 of the exact
inverse's when 8 c_d eps kappa <= 1 (kappa = ||M|| ||zb|| in the 1- and
the infinity norm; a worse conditioned basis is not certified).  A
residual's evaluation adds gamma_{d+1} (ymax + zmax ||theta||_1), and
theta's distance adds d zmax times it: a residual beyond that sum has the
exact vertex's sign, and the sum must also lie below the schedule's last
eps, which step 5 of the reduced problem reads.  The gradient sum over the
rows rounds by at most gamma_{count+2} zmax sw in any summation order
(terms w_i z_ij (tau - s), each within 2 eps of exact), and a reduced
problem's glob means add as much again (step 4 below), so
4 (count + 2) eps zmax sw bounds both.  The multipliers' solve adds the
same LU error, so v lies within
2 ||M||_1 (4 (count + 2) eps zmax sw + 2 c_d eps ||zb||_1 ||v||) of the
exact multipliers, and each end of [w_j (tau - 1), w_j tau] must clear v
by that plus 4 eps (w_j + |v_j|), its own and the subtraction's rounding.
Every bound is in the problem's standardized units.

A stage allocates its n-length buffers once and writes every elementwise
pass into them, because fresh n-length temporaries page-fault on first
touch.  Every pass over the rows runs down one column at a time, because a
broadcast over a C-ordered (n, d) array has an inner loop of length d:
standardization writes (z_j - mu_j) / sd_j column by column, and the stage
forms its curvature-weighted design z_j * curv the same way.  Both are
elementwise, so the bytes are those of the broadcast.  The column moments
are those numpy gives a C-ordered array with d >= 2 columns: ``mean``/``std``
along axis 0 add row after row from 0.0, a running sum per column.
``_column_moments`` takes that sum over the columns themselves, strided
views included, _CHUNK = 8,192 rows at a time: each chunk (or its squared
deviations) goes into one 64 KiB buffer, its first entry takes the sum so
far, and ``np.add.accumulate`` carries it on, so no n-length copy is made.
A broadcast constant 1.0 takes no sum: for n < 2^53 its sums are exactly n
and 0, so its moments are (1.0, 0.0).  zs and ``scaled`` are C-ordered
whatever the input's layout: the solver's ``z @ theta``, ``z.T @ g`` and
``scaled.T @ z`` go to BLAS, whose kernels for the other layout sum in
another order (checked under OpenBLAS: the bytes change).

The loss computes its Huber branch's r^2 / (2 eps) only for the rows in the
band |r| <= eps, taken by index: each row's value is the same arithmetic as
a pass over every row.  Each Newton iteration scans the damping
lam_k = lam 10^k up from the stage's current lam, at most 40 steps, and
takes the first candidate whose loss is not above f + 1e-12 max(1, |f|) (a
NaN loss is not above it).  With no residual in the band the Hessian forms
as zero and its scale as 1, so such an iteration scans the same way.

Fits of at least PREPROCESS_ROWS = 20,000 rows solve a reduced problem
first (Portnoy & Koenker 1997, "The Gaussian hare and the Laplacian
tortoise", Statist. Sci. 12(4)).  In order:

1. Standardize on the full data, as every fit does, so the schedule keeps
   its scale.
2. Fit a subsample of m = ceil(sqrt(d) n^(2/3)) rows, drawn by a Generator
   seeded with _SUBSAMPLE_SEED: the fit only ranks the rows, and its
   sampling error, about m^(-1/2) = 0.02 standardized units at n = 1e5,
   outweighs what later stages would polish.  This pilot fit runs
   _SUBSAMPLE_STAGES = 1 stage (eps = 1e-1), which tries no vertex.
3. Rank the full data's residuals from that fit and keep the M = 2m rows
   whose ranks lie nearest the weighted tau-quantile's (n tau with unit
   weights).  The rows below and the rows above each collapse into one
   "glob" row: its members' weighted mean design row and response,
   weighted by their total weight.  A glob of zero weight is dropped.
4. Solve the reduced rows from the subsample's theta.  The solve resumes at
   eps = _VERTEX_EPS, since a certified vertex does not depend on the path,
   and certifies on the reduced rows with the full problem's
   (n, zmax, ymax): each glob's mean rounds by at most gamma_{n+1} zmax
   times its weight, which the gradient's bound covers.
5. Check the globs: every glob member's full-data residual lies at or
   beyond the last eps on its own side.  For |r| >= eps the Huberized loss
   is linear, tau r - eps/4 above and (tau - 1) r - eps/4 below, so near
   the result a glob's loss and gradient equal its members' sums exactly
   and its curvature is theirs, zero.  The reduced stationary point is then
   the full one, and by convexity the full smoothed problem's minimum; a
   reduced vertex's certificate holds on the full data, whose members lie
   beyond the residual bound on their sides and whose gradient is the
   globs'.
6. If a member is misplaced, every misplaced member joins the band and the
   reduced problem is solved again from the current theta; if more than a
   tenth of M are misplaced, m doubles and a fresh subsample starts over.
   After _ROUNDS reduced solves, or once 2m reaches n, the full solve over
   all rows runs from weighted least squares, and its result is returned.

So a certified preprocessed fit has the bytes of a certified full solve,
whose basis is the same unique optimum; an uncertified one is a certified
minimizer of the same smoothed problem, but not the full solve's bytes.
Below the threshold a fit is the full solve, bit for bit.

Step 3 needs the residuals' order only at the band's two cuts.  With unit
weights the quantile's rank is ceil(n tau) - 1, so ``_band`` selects the
values at the two ranks beside each cut and takes each mask by one
comparison with the value there.  It selects them in a window of the
residuals (``_window``): those between two bounds read from a sorted
strided sample of about _BAND_SAMPLE residuals, about four standard errors
outside the ranks' sample quantiles, and the count of residuals below the
window places its ranks.  A bound past the sample's end, or one that
misses a needed rank, opens to -inf or inf, so the window always holds
the ranks.  Where a cut falls between equal (or NaN) residuals, only the
sort decides which of them lie below it, so that band, like every weighted
one, takes the argsort and cumsum: the masks are the sort's, ties
included.

Every fit of a problem draws the same subsamples: each starts a Generator
seeded with _SUBSAMPLE_SEED, and its j-th draw has m 2^j rows whatever
tau is.  So the problem keeps each draw, its gathered rows and their
least-squares start when a fit first needs it (``_subsample``), and its
other taus reuse them; they are freed with the problem.  The full solve's
least-squares start (``_full_start``) is kept the same way, so the three
fits of a contour's direction make one ``lstsq``, not three, and the
certificate's extent is made with the problem.  The unit-weight globs of
``_reduced`` take their member count as their total weight, which is what
the sum of their 0/1 weights gives.

A fit is two steps.  `CheckLossProblem` validates the design,
standardizes it and checks the standardized design's rank; none of that
depends on tau.  `fit_prepared` then fits one tau on it, for a frequentist
fit and a chain's start alike, and `fit_check_loss` is the pair at one tau.
A contour's direction u has one design [y_perp, x, 1] against y_u for every
tau, so a multi-tau contour prepares it once.

A prepared problem holds its rows once: the standardized design zs, whose
constant columns keep the raw values that un-standardizing reads, the
standardized response ys, and the weights only when some weight is not 1.
Unit weights travel as None, which every pass reads as x * 1.0 == x and a
weight sum of n, so the bytes are those of an array of ones.  The problem
keeps no reference to the arrays it was made from.  A frequentist
direction's problem (``_direction_problem``: contours, `frequentist_fit`
and simlab's oracles) is made from the projection's columns, y_perp's and
x's as views and the constant as ``np.broadcast_to(1.0, n)``, never from a
stacked design, and drops them once zs and ys hold their values; a 2-D
design is read as the same column views, so both take one path and give
the same bytes.  A Bayes contour's chains, which run on the stacked
design, keep it beside the problem.  A reduced fit makes its residual
buffer after the first subsample draw, whose ``Generator.choice`` builds
an n-length index array, and lends it to ``_reduced`` for the glob
weights.  A vertex attempt holds a few vectors as long as the rows it is
tried on, the reduced rows of a preprocessed fit.

The rank check decides as ``np.linalg.matrix_rank(zs) == d``, which holds
iff the SVD's s_min > n eps s_max (n > d), but certifies full rank without
its n x d copy when it can (``_full_rank``).  With G = zs' zs finite, full
rank is declared when G's smallest computed eigenvalue exceeds
4 (n + d) eps (trace G + tiny), eps and tiny being float64's epsilon and
smallest normal.  G's rounding is at most gamma_n trace G in the 2-norm
(|dG_ij| <= gamma_n |z_i| |z_j|, gamma_n ~ n eps, any summation order),
eigvalsh's backward error adds c d eps ||G|| (c a small constant, here
taken <= 4), and products that underflow add at most n eps tiny; as
trace G >= s_max^2, a certified design has s_min^2 >= 2 n eps s_max^2.
Its s_min / s_max >= sqrt(2 n eps) then exceeds the SVD's threshold
n eps plus the SVD's own rounding (about n d eps) for every
n < 2 / ((d + 1)^2 eps), about 5e14 at d = 3.  Every other design
(deficient, nearly so with s_min / s_max below about sqrt(4 d n eps), or
with a constant column too large to square) goes to ``matrix_rank``, so
every decision is the SVD's.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .ald import HyperplaneParams
from .errors import DomainError, RankError, ShapeError
from .geometry import Dataset, Direction, OrthoBasis, project

__all__ = ["FitResult", "CheckLossProblem", "fit_prepared", "fit_check_loss", "frequentist_fit"]

# the reduced problem of the module docstring: fits of at least this many
# rows take it, with this subsample seed, and fall back to the full solve
# after this many reduced solves.  The pilot runs _SUBSAMPLE_STAGES stages
# of the schedule
PREPROCESS_ROWS = 20_000
_SUBSAMPLE_SEED = 20_240_607
_SUBSAMPLE_STAGES = 1
_ROUNDS = 3

# the vertex of the module docstring: a solve tries one after each stage
# with eps at most _VERTEX_EPS (where a reduced solve resumes),
# among the d-subsets of the _VERTEX_ROWS rows whose residuals lie nearest 0
_VERTEX_EPS = 1e-3
_VERTEX_ROWS = 16


@dataclass(frozen=True)
class FitResult:
    theta: object  # HyperplaneParams for hyperplane fits, ndarray for design-level fits
    iterations: int
    converged: bool


def _smoothed_loss(r, w, tau, eps, a, q, inside):
    # sum_i w_i rho_tau(r_i), rho_tau(r) = (tau - 1/2) r + |r|/2 with |r|
    # Huberized at width eps; w is None for unit weights, and a, q and inside
    # are the stage's n-length scratch buffers.  The rows in the band take
    # the quadratic branch by index
    np.abs(r, out=a)
    np.less_equal(a, eps, out=inside)
    a -= eps / 2.0
    rows = inside.nonzero()[0]
    band = r.take(rows)
    band *= band
    band /= 2.0 * eps
    a[rows] = band
    a *= 0.5
    np.multiply(tau - 0.5, r, out=q)
    q += a
    if w is not None:
        q *= w
    return float(q.sum())


def _newton_stage(z, y, tau, w, theta, eps, max_iter=60, gtol=1e-11):
    # w is None for unit weights, whose sum is n and whose products are
    # x * 1.0 == x
    n, d = z.shape
    sw = float(n) if w is None else float(np.sum(w))
    lam = 1e-10
    z_t = z.T
    eye = np.eye(d)
    r, r_c, a, q, g1, curv = (np.empty(n) for _ in range(6))
    inside = np.empty(n, dtype=bool)
    scaled = np.empty(z.shape)  # z * (w * curvature)[:, None]
    np.matmul(z, theta, out=r)
    np.subtract(y, r, out=r)
    f = _smoothed_loss(r, w, tau, eps, a, q, inside)
    it = 0
    for it in range(1, max_iter + 1):
        # r belongs to the current theta: the start or the last accepted
        # candidate; once grad and hess are formed, its buffer is free
        np.divide(r, eps, out=g1)
        np.maximum(g1, -1.0, out=g1)  # np.clip's values, NaN included, at less cost
        np.minimum(g1, 1.0, out=g1)
        g1 *= 0.5
        g1 += tau - 0.5
        if w is not None:
            g1 *= w
        grad = -(z_t @ g1)
        if np.abs(grad).max() <= gtol * max(1.0, sw):
            return theta, f, it, True
        np.abs(r, out=a)
        np.less(a, eps, out=inside)
        np.multiply(inside, 0.5 / eps, out=curv)
        if w is not None:
            curv *= w
        for j in range(d):
            np.multiply(z[:, j], curv, out=scaled[:, j])
        hess = scaled.T @ z  # zero (or -0.0) with an empty band, so the scale is 1
        scale = max(np.abs(hess.diagonal()).max(), 1.0)
        for _ in range(40):
            try:
                step = np.linalg.solve(hess + lam * scale * eye, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = theta + step
            np.matmul(z, cand, out=r_c)
            np.subtract(y, r_c, out=r_c)
            f_c = _smoothed_loss(r_c, w, tau, eps, a, q, inside)
            if not f_c > f + 1e-12 * max(1.0, abs(f)):  # a NaN loss is accepted
                break
            lam *= 10.0
        else:
            return theta, f, it, False
        improved = f - f_c
        theta, f = cand, f_c
        r, r_c = r_c, r
        lam = max(lam * 0.3, 1e-12)
        if improved <= 1e-14 * max(1.0, abs(f)):
            return theta, f, it, True
    return theta, f, it, False


def _least_squares(zs, ys, w):
    """Weighted least squares, the schedule's start on a subsample and on
    the full rows (``_subsample``, ``_full_start``).  Unit weights (None) scale nothing, since sqrt(1 + 1e-300) is 1.0, and
    lstsq copies its operands into its own buffers, so the bytes are those
    of the scaled copies."""
    if w is None:
        return np.linalg.lstsq(zs, ys, rcond=None)[0]
    root = np.sqrt(w + 1e-300)
    return np.linalg.lstsq(zs * root[:, None], ys * root, rcond=None)[0]


def _full_start(problem):
    """The full solve's least-squares start of a prepared problem, made on
    first need and kept, read-only, for its other fits."""
    p = problem
    if p.start is None:
        p.start = _least_squares(p.zs, p.ys, p.w)
        p.start.flags.writeable = False
    return p.start


def _solve(zs, ys, tau, w, schedule, theta, extent):
    """The continuation schedule over every given row (w is None for unit
    weights) from theta; returns theta, the Newton iterations and whether
    every stage converged.  After each stage with eps <= _VERTEX_EPS it
    tries a vertex and returns the first one certified, converged
    (``_vertex``); extent is the certificate's (count, zmax, ymax)."""
    total_iter = 0
    converged = True
    for eps in schedule:
        theta, _, its, ok = _newton_stage(zs, ys, tau, w, theta, eps)
        total_iter += its
        converged = converged and ok
        if eps <= _VERTEX_EPS:
            vertex = _vertex(zs, ys, tau, w, theta, extent)
            if vertex is not None:
                return vertex, total_iter, True
    return theta, total_iter, converged


def _extent(zs, ys):
    """(n, max |zs|, max |ys|): the row count and sizes the certificate's
    rounding bounds read (``_certify``)."""
    return zs.shape[0], max(float(zs.max()), -float(zs.min())), max(float(ys.max()), -float(ys.min()))


@functools.cache
def _subsets(k, d):
    """Every d-subset of range(k), one per row, in lexicographic order."""
    subsets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(k), d)),
                          dtype=np.intp).reshape(-1, d)
    subsets.flags.writeable = False
    return subsets


def _held_gradient(zs, r, tau, w, rows):
    """sum_i z_i w_i (tau - 1[r_i < 0]) over the rows not in rows: minus
    the check loss's gradient over them while each keeps the side of 0 its
    residual r_i lies on."""
    c = np.where(r < 0.0, tau - 1.0, tau)
    if w is not None:
        c *= w
    c[rows] = 0.0
    return zs.T @ c


def _vertex(zs, ys, tau, w, theta, extent):
    """The certified vertex near a stage's theta, or None.  Of the
    d-subsets of the _VERTEX_ROWS rows whose residuals lie nearest 0, the
    one picked minimizes the check loss with every other row held on its
    side of theta, where its loss is linear; ``_certify`` decides."""
    d = zs.shape[1]
    r = ys - zs @ theta
    a = np.abs(r)
    # the rows below the _VERTEX_ROWS-th smallest |r|, then the first of
    # those at it, by the np.partition that _band runs: argpartition's code
    # would add to the process's resident pages
    cut = np.partition(a, min(_VERTEX_ROWS, a.size) - 1)[min(_VERTEX_ROWS, a.size) - 1]
    below = np.flatnonzero(a < cut)
    near = np.sort(np.concatenate([below, np.flatnonzero(a == cut)[:_VERTEX_ROWS - below.size]]))
    k = near.size  # _VERTEX_ROWS, or every row of a shorter problem; 0 if NaN reaches the cut
    if k < d:
        return None
    h = _held_gradient(zs, r, tau, w, near)
    zk, yk = zs[near], ys[near]
    wk = 1.0 if w is None else w[near]
    subsets = _subsets(k, d)
    systems = zk[subsets]
    solvable = np.linalg.det(systems) != 0.0
    if not solvable.any():
        return None
    subsets, systems = subsets[solvable], systems[solvable]
    with np.errstate(all="ignore"):
        thetas = np.linalg.solve(systems, yk[subsets][..., None])[..., 0]
        rk = yk - thetas @ zk.T
        loss = (np.where(rk < 0.0, tau - 1.0, tau) * rk * wk).sum(axis=1) - thetas @ h
    loss[~np.isfinite(loss)] = np.inf
    best = int(np.argmin(loss))
    if not np.isfinite(loss[best]):
        return None
    return _certify(zs, ys, tau, w, near[subsets[best]], extent)


def _norms(a):
    """(infinity norm, 1-norm) of a square matrix."""
    a = np.abs(a)
    return float(a.sum(axis=1).max()), float(a.sum(axis=0).max())


def _certify(zs, ys, tau, w, basis, extent):
    """theta = solve(zs[basis], ys[basis]) when the Koenker-Bassett
    conditions certify it the exact minimizer of the check loss over every
    row, with the rounding bounds of the module docstring; else None.
    basis holds d row indices in increasing order."""
    n, d = zs.shape
    count, zmax, ymax = extent
    zb = zs[basis]
    try:
        theta = np.linalg.solve(zb, ys[basis])
        # zb's inverse, column by column, by the one-right-hand-side solve
        # the stages run: np.linalg.inv's code would add resident pages
        inverse = np.linalg.solve(np.broadcast_to(zb, (d, d, d)), np.eye(d)[..., None])[..., 0].T
    except np.linalg.LinAlgError:
        return None
    (zb_inf, zb_one), (inv_inf, inv_one) = _norms(zb), _norms(inverse)
    lu = 3 * d * (1 + (d * d - d) * 2**d)  # c_d: LU's backward error, in units of eps ||zb||
    if not 8.0 * lu * _EPS * max(zb_inf * inv_inf, zb_one * inv_one) <= 1.0:
        return None  # too ill-conditioned for the bounds (or not finite)
    # every residual within err of the exact vertex's
    step = 4.0 * lu * _EPS * inv_inf * zb_inf * float(np.abs(theta).max())
    err = 2.0 * (d + 1) * _EPS * (ymax + zmax * float(np.abs(theta).sum())) + d * zmax * step
    if not err < constants.SMOOTHING_SCHEDULE[-1]:
        return None
    r = ys - zs @ theta
    a = np.abs(r)
    a[basis] = np.inf
    if not a.min() > err:
        return None
    # the basis rows' multipliers: zb' v = -(sum of the other rows' gradients)
    v = np.linalg.solve(zb.T, -_held_gradient(zs, r, tau, w, basis))
    sw = float(n) if w is None else float(np.sum(w))
    grad_err = 4.0 * (count + 2) * _EPS * zmax * sw
    v_err = 2.0 * inv_one * (grad_err + 2.0 * lu * _EPS * zb_one * float(np.abs(v).max()))
    wb = np.ones(d) if w is None else w[basis]
    slack = v_err + 4.0 * _EPS * (wb + np.abs(v))
    inside = (v - wb * (tau - 1.0) > slack) & (wb * tau - v > slack)
    return theta if inside.all() else None


def _band(r, w, tau, width):
    """Masks of the rows below and above the `width` rows whose residual
    ranks lie nearest the weighted tau-quantile of r (w is None for unit
    weights): by selection in a window of r with unit weights, by the sort
    otherwise or at a tied cut (module docstring)."""
    n = r.size
    if w is None:
        lo = max(0, math.ceil(tau * n) - 1 - width // 2)
        hi = lo + width
        cuts = [c for c in (lo, hi) if 0 < c < n]
        if not cuts:
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        window, below = _window(r, cuts[0] - 1, cuts[-1])
        if window is not None:
            v = np.partition(window, [k - below for c in cuts for k in (c - 1, c)])
            if all(v[c - 1 - below] < v[c - below] for c in cuts):
                lower = r < v[lo - below] if lo > 0 else np.zeros(n, dtype=bool)
                upper = ~(r < v[hi - below]) if hi < n else np.zeros(n, dtype=bool)  # NaN ranks last
                return lower, upper
        w = np.ones(n)
    order = np.argsort(r)
    cw = np.cumsum(w[order])
    k = int(np.searchsorted(cw, tau * cw[-1]))
    lo = max(0, k - width // 2)
    lower = np.zeros(r.shape, dtype=bool)
    upper = np.zeros(r.shape, dtype=bool)
    lower[order[:lo]] = True
    upper[order[lo + width:]] = True
    return lower, upper


# the strided sample of residuals whose order statistics bound _band's window
_BAND_SAMPLE = 4096


def _window(r, first, last):
    """(values, count of r below them): the residuals between two bounds,
    whose ranks in r's sorted order (NaN last) run from the count up and
    hold ranks first to last; None for the values when rank last is a NaN.
    The bounds are order statistics of a strided sample of r, about four
    standard errors outside the ranks' sample quantiles; a bound that misses
    a rank opens to -inf or inf."""
    n = r.size
    sample = np.sort(r[::max(1, n // _BAND_SAMPLE)])
    k = sample.size
    margin = 2 * math.isqrt(k) + 1
    i, j = first * k // n - margin, last * k // n + margin
    a = sample[i] if i >= 0 else -np.inf
    b = sample[j] if j < k else np.inf
    while True:
        below = int(np.count_nonzero(r < a))
        inside = r >= a
        inside &= r <= b
        size = int(np.count_nonzero(inside))
        if below > first:
            a = -np.inf
        elif last >= below + size and b < np.inf:
            b = np.inf
        else:
            break
    return (r.take(inside.nonzero()[0]) if last < below + size else None), below


def _reduced(zs, ys, w, lower, upper, wg):
    """The rows outside both globs, then one row per glob of positive
    weight: its members' weighted means, weighted by their total weight (w
    is None for unit weights, and a glob's total is its member count).  wg
    is an n-length scratch buffer for the glob weights.  The rows are taken
    straight into the reduced arrays, with no copy between."""
    globs = []
    for glob in (lower, upper):
        if w is None:
            np.copyto(wg, glob)
            total = float(np.count_nonzero(glob))
        else:
            np.multiply(w, glob, out=wg)
            total = float(wg.sum())
        if total > 0.0:
            globs.append((wg @ zs / total, wg @ ys / total, total))
    band = np.flatnonzero(~(lower | upper))
    m, size = band.size, band.size + len(globs)
    zr, yr, wr = np.empty((size, zs.shape[1])), np.empty(size), np.empty(size)
    # the indices are in range, and with any mode but "raise" take writes
    # into out without buffering it
    zs.take(band, axis=0, out=zr[:m], mode="clip")
    ys.take(band, out=yr[:m], mode="clip")
    if w is None:
        wr[:m] = 1.0
    else:
        w.take(band, out=wr[:m], mode="clip")
    for i, glob_row in enumerate(globs, start=m):
        zr[i], yr[i], wr[i] = glob_row
    return zr, yr, wr


def _misplaced(r, lower, upper, eps):
    """Glob members not at or beyond eps on their own side of the fit."""
    return (lower & (r > -eps)) | (upper & (r < eps))


def _subsample(problem, j, m):
    """Draw j, of m rows, of the reduced problem's subsamples: the rows'
    standardized design, response and weights and their least-squares
    start.  The draws come from one Generator seeded with _SUBSAMPLE_SEED,
    in order, so draw j is the same at every tau, and the problem keeps
    each for its other taus."""
    p = problem
    if j == len(p.subsamples):
        if p.subsample_rng is None:
            p.subsample_rng = np.random.default_rng(_SUBSAMPLE_SEED)
        sub = np.sort(p.subsample_rng.choice(p.n, m, replace=False))
        zsub, ysub, wsub = p.zs[sub], p.ys[sub], None if p.w is None else p.w[sub]
        start = _least_squares(zsub, ysub, wsub)
        start.flags.writeable = False
        p.subsamples.append((zsub, ysub, wsub, start))
    return p.subsamples[j]


def _preprocessed_solve(problem, tau):
    """`_solve` of a prepared problem through the reduced problem of the
    module docstring, falling back to the full solve when no round is
    certified.  The pilot runs _SUBSAMPLE_STAGES stages and the reduced
    solves resume at _VERTEX_EPS, since a certified vertex's bytes do not
    depend on the path to it."""
    p = problem
    zs, ys, w = p.zs, p.ys, p.w
    n, d = zs.shape
    schedule = constants.SMOOTHING_SCHEDULE
    eps = schedule[-1]
    pilot, resumed = schedule[:_SUBSAMPLE_STAGES], tuple(e for e in schedule if e <= _VERTEX_EPS)
    m = math.ceil(math.sqrt(d) * n ** (2.0 / 3.0))
    draws = spent = 0
    theta = None
    r = None  # made after the first draw, whose Generator.choice builds n indices

    def residuals():
        nonlocal r
        if r is None:
            r = np.empty(n)
        np.matmul(zs, theta, out=r)
        return np.subtract(ys, r, out=r)

    for _ in range(_ROUNDS):
        if theta is None:
            if 2 * m >= n:
                break
            zsub, ysub, wsub, start = _subsample(p, draws, m)
            draws += 1
            theta, its, _ = _solve(zsub, ysub, tau, wsub, pilot, start, p.extent)
            spent += its
            lower, upper = _band(residuals(), w, tau, 2 * m)
        zr, yr, wr = _reduced(zs, ys, w, lower, upper, r)
        # the full problem's extent bounds the reduced rows' rounding, globs included
        theta, its, ok = _solve(zr, yr, tau, wr, resumed, theta, p.extent)
        del zr, yr, wr  # before a fix-up round builds its own
        spent += its
        misplaced = _misplaced(residuals(), lower, upper, eps)
        count = int(np.count_nonzero(misplaced))
        if count == 0:
            return theta, spent, ok
        if count > 0.1 * 2 * m:
            m *= 2
            theta = None
        else:
            lower &= ~misplaced
            upper &= ~misplaced
    theta, its, ok = _solve(zs, ys, tau, w, schedule, _full_start(p), p.extent)
    return theta, spent + its, ok


# the rows a column-moment pass takes at a time (``_column_moments``)
_CHUNK = 8192


def _column_moments(columns):
    """``z.mean(axis=0)`` and ``z.std(axis=0)``, bit for bit, of the
    C-ordered (n, d) array, d >= 2, whose columns are given, in chunks of
    _CHUNK rows with no n-length copy; for one column, the running sum's
    moments."""
    n = columns[0].size
    mu, sd = np.empty(len(columns)), np.empty(len(columns))
    buf, acc = np.empty(min(n, _CHUNK)), np.empty(min(n, _CHUNK))
    for j, col in enumerate(columns):
        if col.strides == (0,) and col[0] == 1.0 and n < 2**53:
            # a broadcast constant 1.0: its running sums are n and 0, exactly
            mu[j], sd[j] = 1.0, 0.0
            continue
        mu[j] = _running_sum(col, None, buf, acc) / n
        sd[j] = np.sqrt(_running_sum(col, mu[j], buf, acc) / n)
    return mu, sd


def _running_sum(col, mu, buf, acc):
    """The running sum of col, or of (col - mu)^2, from 0.0 and row after
    row, as numpy adds axis 0 of a C-ordered array with two or more columns:
    each chunk's accumulate starts from the sum so far."""
    total = 0.0
    for start in range(0, col.size, buf.size):
        part = col[start:start + buf.size]
        b = buf[:part.size]
        if mu is None:
            np.copyto(b, part)
        else:
            np.subtract(part, mu, out=b)
            b *= b
        b[0] += total
        total = np.add.accumulate(b, out=acc[:part.size])[-1]
    return total


_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _full_rank(zs):
    """Whether ``np.linalg.matrix_rank(zs)`` is zs's column count: certified
    from the Gram matrix when its smallest eigenvalue clears the bound of
    the module docstring, else decided by the SVD."""
    n, d = zs.shape
    with np.errstate(over="ignore", invalid="ignore"):
        gram = zs.T @ zs
    if np.isfinite(gram).all():
        bound = 4.0 * (n + d) * _EPS * (float(np.trace(gram)) + _TINY)
        if np.linalg.eigvalsh(gram)[0] > bound:
            return True
    return np.linalg.matrix_rank(zs) == d


def _refuse_non_finite(name, columns, sd):
    """DomainError when a moment is not finite: the columns hold a NaN or
    an inf, or values too large for their variance to be a float."""
    if not np.isfinite(sd).all():
        if not all(np.isfinite(col).all() for col in columns):
            raise DomainError(f"{name} contains a NaN or infinite value")
        raise DomainError(f"{name} values are too large: their variance overflows")


class CheckLossProblem:
    """A validated, standardized check-loss problem with no tau: the design,
    response and weights of ``fit_check_loss`` with its rank check done once,
    so ``fit_prepared`` can fit it at any number of taus.  A NaN or infinite
    value in the design, response or weights raises ``DomainError`` naming
    the array (the solver would run every stage to its iteration cap and
    return NaN).

    Standardization centers and scales the non-constant columns and the
    response; without a constant column centering would change the problem,
    so it scales only.  The problem keeps the standardized design ``zs``
    (whose constant columns keep their raw values) and response ``ys``, and
    the weights ``w`` only when some weight is not 1 (else None); it holds
    no reference to the arrays it was made from.
    """

    def __init__(self, design, y, weights=None):
        z = np.atleast_2d(np.asarray(design, dtype=float))
        self._prepare([y, *z.T], weights)

    @classmethod
    def _of_columns(cls, parts):
        """The problem of response parts[0] against the design whose
        columns are parts[1:], without stacking them.  parts is emptied, so
        the problem releases its arrays once zs and ys hold their values."""
        problem = cls.__new__(cls)
        problem._prepare(parts, None)
        return problem

    def _prepare(self, parts, weights):
        """Validate and standardize response parts[0] and the (n, d) design's
        columns parts[1:] into the C-ordered zs and ys."""
        y, *columns = parts
        parts.clear()
        if not columns:
            raise ShapeError("design has no columns")
        y = np.asarray(y, dtype=float)
        n, d = columns[0].size, len(columns)
        if y.shape != (n,):
            raise ShapeError("response length does not match the design")
        if n <= d:
            raise DomainError(f"need more observations than parameters (n={n}, d={d})")
        w = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,):
                raise ShapeError("weight length does not match the design")
            if np.any(w < 0):
                raise DomainError("weights must be nonnegative")
            if not np.isfinite(w).all():
                raise DomainError("weights contain a NaN or infinite value")
            if not np.any(w != 1.0):
                w = None
        # a NaN or inf in the design or response makes its sd NaN (inf - inf
        # is NaN), and finite values too large to square make it inf; both
        # are silenced here, and only a non-finite sd leads to a look at the
        # values to tell the two apart
        with np.errstate(invalid="ignore", over="ignore"):
            col_mu, col_sd = _column_moments(columns)
            y_sd = float(y.std())
        _refuse_non_finite("design", columns, col_sd)
        _refuse_non_finite("response", [y], y_sd)

        const_col = col_sd <= 1e-12 * (1.0 + np.abs(col_mu))
        if not np.any(const_col):
            col_mu = np.zeros(d)
            y_mu = 0.0
        else:
            y_mu = float(y.mean())
        col_mu = np.where(const_col, 0.0, col_mu)
        col_sd = np.where(const_col, 1.0, col_sd)
        if y_sd <= 1e-300:
            y_sd = 1.0
        # (z - col_mu) / col_sd with z's constant columns, one column at a time
        zs = np.empty((n, d))
        for j, col in enumerate(columns):
            if const_col[j]:
                zs[:, j] = col
            else:
                np.subtract(col, col_mu[j], out=zs[:, j])
                zs[:, j] /= col_sd[j]
        # the last references to a projection's columns (``_of_columns``):
        # y_perp is freed before ys is made, and y_u after
        del columns
        ys = np.subtract(y, y_mu)
        ys /= y_sd
        del y
        # on zs, whose columns share one scale: the rank's relative
        # tolerance would drop a column of the raw design that is 1e14
        # times smaller than another
        if not _full_rank(zs):
            raise RankError("design matrix is rank deficient")
        self.n = n
        self.zs, self.ys, self.w = zs, ys, w
        self.col_mu, self.col_sd, self.const_col = col_mu, col_sd, const_col
        self.y_mu, self.y_sd = y_mu, y_sd
        # made on first need: the full solve's start (_full_start) and the
        # reduced problem's subsample draws (_subsample)
        self.start = None
        self.subsamples = []
        self.subsample_rng = None
        self.extent = _extent(zs, ys)  # the certificate's (count, zmax, ymax)


def fit_prepared(problem: CheckLossProblem, tau):
    """Minimize sum_i w_i * rho_tau(y_i - design_i' theta) over theta for a
    prepared problem.

    Returns a FitResult whose theta is the raw coefficient vector in design
    order, iterations counts every Newton iteration the call ran, and
    converged says whether theta is a certified vertex, the exact minimizer
    (module docstring), or else every continuation stage converged.
    """
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must lie in (0, 1), got {tau!r}")
    p = problem
    if p.n >= PREPROCESS_ROWS:
        theta_s, total_iter, converged = _preprocessed_solve(p, tau)
    else:
        theta_s, total_iter, converged = _solve(p.zs, p.ys, tau, p.w, constants.SMOOTHING_SCHEDULE,
                                                _full_start(p), p.extent)

    # undo standardization: y = y_mu + y_sd * ys, z_j = col_mu_j + col_sd_j * zs_j
    const_col = p.const_col
    theta = np.where(const_col, theta_s * p.y_sd, theta_s * p.y_sd / p.col_sd)
    shift = float(np.sum(np.where(const_col, 0.0, theta * p.col_mu)))
    if np.any(const_col):
        # absorb the response centering into the (first) constant column
        j = int(np.nonzero(const_col)[0][0])
        cval = p.zs[0, j]  # zs keeps the constant columns' raw values
        theta[j] = theta[j] + (p.y_mu - shift) / cval
    return FitResult(theta=theta, iterations=total_iter, converged=converged)


def fit_check_loss(design, y, tau, weights=None):
    """``fit_prepared`` at one tau, on ``CheckLossProblem(design, y, weights)``."""
    return fit_prepared(CheckLossProblem(design, y, weights), tau)


def _direction_columns(data: Dataset, direction: Direction, basis: OrthoBasis | None = None) -> list:
    """[y_u, then direction u's design columns]: y_perp's and x's columns,
    as views, and the constant, broadcast; the coefficient order
    (beta_y, beta_x, alpha) of fits and chains alike."""
    projected = project(data, direction, basis)
    return [projected.y_u, *projected.y_perp.T, *data.x.T, np.broadcast_to(1.0, data.n)]


def _direction_design(data: Dataset, direction: Direction, basis: OrthoBasis | None = None):
    """Direction u's design [y_perp, x, 1], stacked, and its response y_u."""
    y_u, *columns = _direction_columns(data, direction, basis)
    return np.column_stack(columns), y_u


def _direction_problem(data: Dataset, direction: Direction,
                       basis: OrthoBasis | None = None) -> CheckLossProblem:
    """The prepared problem of direction u's ``_direction_design``, made
    from the projection's columns without stacking them.  It depends on u
    only, so one serves every tau."""
    return CheckLossProblem._of_columns(_direction_columns(data, direction, basis))


def frequentist_fit(data: Dataset, direction: Direction, basis: OrthoBasis | None = None) -> FitResult:
    """Check-loss fit of the directional quantile hyperplane for one direction.

    The design is [y_perp, x, 1] so the coefficient order is
    (beta_y, beta_x, alpha), matching the samplers.
    """
    raw = fit_prepared(_direction_problem(data, direction, basis), direction.tau)
    params = HyperplaneParams.from_vector(raw.theta, data.k, data.p)
    return FitResult(theta=params, iterations=raw.iterations, converged=raw.converged)
