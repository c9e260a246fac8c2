"""Frequentist check-loss minimizers.

These serve two roles: MCMC initialization and an estimation oracle that is
independent of the samplers.  The solver replaces the kinked loss with a
Huberized version and shrinks the smoothing width over a fixed continuation
schedule, running a damped (Levenberg-regularized) Newton at each stage.
Inputs are standardized internally so the schedule is scale-appropriate.
Every frequentist fit runs the whole schedule, constants.SMOOTHING_SCHEDULE.
A chain start runs its first three stages only (``samplers._INIT_STAGES``,
eps down to 1e-3), because the chain's burn-in does the rest.  Over the 96
problems of a 32-direction, 3-tau contour of jittered star-like scores at
n = 2,000 (samples of seeds 1-6), the start's largest coefficient gap to
the full fit is a median 0.015-0.018 and at most 0.07-0.22 standardized
units / sqrt(n), and the largest, on a problem whose loss is flat along
the gap, was 0.49 posterior sd; at n = 100 it is at most 0.04 / sqrt(n).
The seed-1 contour's 96 fits at n = 2,000 took 0.76 s through the whole
schedule and 0.18 s through three stages (2-vCPU x86_64, one BLAS thread).

A stage allocates its n-length buffers once and writes every elementwise
pass into them, because fresh n-length temporaries page-fault on first
touch: at n = 1e5 on a 2-vCPU x86_64 host, the loss with fresh temporaries
made 579 minor faults and took 1.9 ms per call, with reused buffers none
and 0.65 ms.

Every pass over the rows runs down one column at a time, because a
broadcast over a C-ordered (n, d) array has an inner loop of length d:
standardization writes (z_j - mu_j) / sd_j column by column, and the stage
forms its curvature-weighted design z_j * curv the same way.  Both are
elementwise, so the bytes are those of the broadcast.  The column moments
are numpy's own: on a C-ordered array with d >= 2 columns, ``mean``/``std``
along axis 0 add row after row, a running sum per column, which
``np.add.accumulate`` over a contiguous copy of the column reproduces; any
other layout (an F-ordered design reduces pairwise) keeps numpy's
reduction.  zs takes z's layout, never a column-major copy of a C-ordered
one, and ``scaled`` stays C-ordered: the solver's ``z @ theta``,
``z.T @ g`` and ``scaled.T @ z`` go to BLAS, whose kernels for the other
layout sum in another order (checked under OpenBLAS: the bytes change).
At n = 1e5, d = 2 (2-vCPU x86_64, one BLAS thread, best of repeats) the
moments took 6.1 ms through numpy and 1.8 ms by columns, and the
standardization 2.7 ms by broadcast and 0.56 ms by columns.

The loss's Huber branch takes three dense passes (r^2, / 2 eps, a masked
copy).  When fewer than a quarter of theta's residuals lie in the band, the
stage has the loss take the rows in the band by index instead: the
candidates' bands are about as full as theta's.  With every residual in the
band the masked copy is faster.  Measured per loss on the same host (min of
repeats): the gather takes 0.65-0.8 of the dense passes' time at n = 7,500
for any band of up to half the rows, 0.8-1.0 at n = 2,000, 1.1-1.3 at
n <= 1,000, and 1.2-1.7 with every row in the band.

Small problems take the same column passes and the same gather, although
below about 2,000 rows their d calls and the gather's fixed cost (nonzero,
take, put) cost a little more than one broadcast or the dense passes.  The
difference is lost in the fit: with a broadcast path below 2,000 rows and
without it (2-vCPU x86_64, one BLAS thread), the desk tables' 40 start fits
took 91.3 and 92.6 ms (median of 12), and desk-sized Gibbs engine calls at
n = 100 took 54.8 and 55.0 ms (9 of 20 alternations won).

When no residual lies in the smoothing band |r| < eps, the Hessian is zero
and the damped step for lam_k = lam * 10^k is -grad / lam_k: every candidate
lies on one ray from theta.  The smoothed loss is convex, so along that ray
the accepted set {f_c <= f + 1e-12 max(1, |f|)} is an interval containing
theta, and acceptance is monotone in k.  A gallop-then-bisect search then
finds the smallest accepted k, the one the sequential scan takes, in fewer
loss evaluations.  Rounding cannot break that order: if step k is accepted,
convexity puts step k + 1, a tenth as long, at least 0.9 of the tolerance
1e-12 max(1, |f|) below the threshold, while summation and residual rounding
are about 1e-15 |f|.  With curvature in the band, the damping path is a
curve, not a ray, and the scan stays sequential.  Every stage starts lam
at 1e-10, so a stage's first such search would climb about 15 decades;
instead each search starts at the last accepted zero-curvature damping of
the same ``_solve`` (one log10 finds its k) and doubles its probes' reach
down or up from there before bisecting (``_damping_search``).  Any search
that brackets the smallest accepted k returns it, so every bit is the
scan's.

A reduced problem (below) has a few thousand unit-weight rows and one or
two globs.  A stage multiplies by its weights only the rows whose weight
is not 1 when they are at most a sixteenth of the rows (``_stage_weights``);
the other products would be x * 1.0 == x, so the bytes are the dense
multiply's.

Fits of at least PREPROCESS_ROWS = 20,000 rows solve a reduced problem
first (Portnoy & Koenker 1997, "The Gaussian hare and the Laplacian
tortoise", Statist. Sci. 12(4)).  In order:

1. Standardize on the full data, as every fit does, so the schedule keeps
   its scale.
2. Fit a subsample of m = ceil(sqrt(d) n^(2/3)) rows, drawn by a Generator
   seeded with _SUBSAMPLE_SEED, through the first _SUBSAMPLE_STAGES stages
   of the schedule (eps down to 1e-2): the fit only ranks the rows, and
   its sampling error, about m^(-1/2) = 0.02 standardized units at n = 1e5,
   outweighs what later stages would polish.
3. Rank the full data's residuals from that fit and keep the M = 2m rows
   whose ranks lie nearest the weighted tau-quantile's (n tau with unit
   weights).  The rows below and the rows above each collapse into one
   "glob" row: its members' weighted mean design row and response,
   weighted by their total weight.  A glob of zero weight is dropped.
4. Run the schedule on the reduced rows, from the subsample's theta.
5. Certify: every glob member's full-data residual lies at or beyond the
   last eps on its own side.  For |r| >= eps the Huberized loss is linear,
   tau r - eps/4 above and (tau - 1) r - eps/4 below, so near the result a
   glob's loss and gradient equal its members' sums exactly and its
   curvature is theirs, zero.  The reduced stationary point is then the
   full one, and by convexity the full smoothed problem's minimum.
6. If a member is misplaced, every misplaced member joins the band and the
   reduced problem is solved again from the current theta; if more than a
   tenth of M are misplaced, m doubles and a fresh subsample starts over.
   After _ROUNDS reduced solves, or once 2m reaches n, the full solve over
   all rows runs from weighted least squares, and its result is returned.

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
included.  A frequentist contour command on 1e5 rows (jittered star-like
scores, 32 directions, 3 taus; 2-vCPU x86_64, mean over its 96 bands)
took 0.55 ms per band in windows of about 12,000 residuals, against
1.6-1.8 ms by selection over all rows; all 96 took the window.

Every fit of a problem draws the same subsamples: each starts a Generator
seeded with _SUBSAMPLE_SEED, and its j-th draw has m 2^j rows whatever
tau is.  So the problem keeps each draw, its gathered rows and their
least-squares start when a fit first needs it (``_subsample``), and its
other taus reuse them; they are freed with the problem.  The unit-weight
globs of ``_reduced`` take their member count as their total weight, which
is what the sum of their 0/1 weights gives.

Below the threshold a fit is the full solve, bit for bit as before; the
chain starts of `fit` (n = 1e4) and `contour` (n = 2e3) stay there.  At or
above it the result is a certified minimizer of the same smoothed problem,
but not the full solve's bytes; a chain start of that size takes the same
path and is certified at the last eps it ran, 1e-3.  A 1e5-row frequentist
contour command (3 taus x 32 directions, one BLAS thread) prepares 32
problems and runs 96 fits on them: 82 fits were certified in the first
round and 14 after one fix-up round of at most 80 rows, none fell back, the
full-data check losses matched the full solve's within 4e-16 relative and
theta within 7e-11, and the solver's loss evaluations covered 54M rows
instead of 736M.  On perfbench's seed-1 input the resumed damping searches
bring its 96 fits from 9,332 loss evaluations over 53.8M rows to 7,616 over
43.3M, with the same bytes.

A fit is two steps.  `CheckLossProblem` validates the design,
standardizes it and checks the standardized design's rank; none of that
depends on tau.  `fit_prepared`
then fits one tau on it through the whole schedule (``_fit_schedule`` takes
the stages, so a chain start can take fewer), and `fit_check_loss` is the
pair at one tau.  A contour's direction u has one design [y_perp, x, 1]
against y_u for every tau, so a multi-tau frequentist contour prepares it
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .ald import HyperplaneParams
from .errors import DomainError, RankError, ShapeError
from .geometry import Dataset, Direction, OrthoBasis, project

__all__ = ["FitResult", "CheckLossProblem", "fit_prepared", "fit_check_loss", "frequentist_fit"]

# the reduced problem of the module docstring: fits of at least this many
# rows take it, with this subsample seed and stage count, and fall back to
# the full solve after this many reduced solves
PREPROCESS_ROWS = 20_000
_SUBSAMPLE_SEED = 20_240_607
_SUBSAMPLE_STAGES = 2
_ROUNDS = 3


@dataclass(frozen=True)
class FitResult:
    theta: object  # HyperplaneParams for hyperplane fits, ndarray for design-level fits
    iterations: int
    converged: bool


def _smoothed_loss(r, w, tau, eps, a, q, inside, gather=False):
    # sum_i w_i rho_tau(r_i), rho_tau(r) = (tau - 1/2) r + |r|/2 with |r|
    # Huberized at width eps; w is None for unit weights, and a, q and inside
    # are the stage's n-length scratch buffers.  With gather the few rows in
    # the band take the quadratic branch by index instead of three dense
    # passes (module docstring); every row's value is the same either way.
    np.abs(r, out=a)
    np.less_equal(a, eps, out=inside)
    if gather:
        a -= eps / 2.0
        rows = inside.nonzero()[0]
        if rows.size:
            band = r.take(rows)
            band *= band
            band /= 2.0 * eps
            a[rows] = band
    else:
        np.multiply(r, r, out=q)
        q /= 2.0 * eps
        a -= eps / 2.0
        np.copyto(a, q, where=inside)
    a *= 0.5
    np.multiply(tau - 0.5, r, out=q)
    q += a
    if w is not None:
        _weigh(q, w)
    return float(q.sum())


def _stage_weights(w):
    """What a stage multiplies by: None for unit weights, since
    x * 1.0 == x; the rows whose weight is not 1 and their weights when they
    are few, as a reduced problem's globs are; else w."""
    other = w != 1.0
    if not other.any():
        return None
    rows = other.nonzero()[0]
    return (rows, w[rows]) if 16 * rows.size <= w.size else w


def _weigh(x, w):
    """x *= w in place, for w from ``_stage_weights``."""
    if type(w) is tuple:
        rows, values = w
        x[rows] *= values
    else:
        x *= w


def _damping_search(accepts, first):
    """The smallest k in [0, 40) with accepts(k), or None, for an
    acceptance monotone in k.  Probes start at first and step away from it
    by 1, 2, 4, ...: down while accepted, up while rejected, until a
    rejected and an accepted k (or an end of the range) bracket the answer;
    bisection closes the bracket.  Each accepted probe lies below every
    accepted one before it, so the last accepted probe is the k returned.
    From first = 0 the probes are the gallop 0, 1, 3, 7, 15, 31, 39."""
    step, lo, hi = 1, -1, None  # the largest k known rejected, the smallest known accepted
    if accepts(first):
        hi = first
        while hi > 0:
            k = max(hi - step, 0)
            if not accepts(k):
                lo = k
                break
            hi, step = k, 2 * step
    else:
        lo = first
        while lo < 39:
            k = min(lo + step, 39)
            if accepts(k):
                hi = k
                break
            lo, step = k, 2 * step
        if hi is None:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepts(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _newton_stage(z, y, tau, w, theta, eps, max_iter=60, gtol=1e-11, hint=None):
    # hint, when given, is a one-item list holding the last accepted
    # zero-curvature damping of the caller's solve (None before the first);
    # the stage starts its zero-curvature searches there and updates it
    n, d = z.shape
    sw = float(np.sum(w))
    w_mul = _stage_weights(w)
    lam = 1e-10
    z_t = z.T
    eye = np.eye(d)
    zero = np.zeros((d, d))
    r, r_c, a, q, g1, curv = (np.empty(n) for _ in range(6))
    inside = np.empty(n, dtype=bool)
    scaled = np.empty(z.shape)  # z * (w * curvature)[:, None]
    np.matmul(z, theta, out=r)
    np.subtract(y, r, out=r)
    # theta's band, counted before the first loss so that a sparse one gathers
    gather = 4 * int(np.count_nonzero(np.less(np.abs(r, out=a), eps, out=inside))) < n
    f = _smoothed_loss(r, w_mul, tau, eps, a, q, inside, gather)

    def attempt(hess, scale, lam_k):
        # the damped step at lam_k; on acceptance its residual becomes r
        nonlocal r, r_c
        try:
            step = np.linalg.solve(hess + lam_k * scale * eye, -grad)
        except np.linalg.LinAlgError:
            return None
        cand = theta + step
        np.matmul(z, cand, out=r_c)
        np.subtract(y, r_c, out=r_c)
        f_c = _smoothed_loss(r_c, w_mul, tau, eps, a, q, inside, gather)
        if f_c > f + 1e-12 * max(1.0, abs(f)):
            return None
        r, r_c = r_c, r
        return cand, f_c

    it = 0
    for it in range(1, max_iter + 1):
        # r belongs to the current theta: the start or the last accepted
        # candidate; once grad and hess are formed, its buffer is free
        np.divide(r, eps, out=g1)
        np.maximum(g1, -1.0, out=g1)  # np.clip's values, NaN included, at less cost
        np.minimum(g1, 1.0, out=g1)
        g1 *= 0.5
        g1 += tau - 0.5
        if w_mul is not None:
            _weigh(g1, w_mul)
        grad = -(z_t @ g1)
        if np.abs(grad).max() <= gtol * max(1.0, sw):
            return theta, f, it, True
        np.abs(r, out=a)
        np.less(a, eps, out=inside)
        in_band = int(np.count_nonzero(inside))
        # the candidates' bands are about as full as theta's
        gather = 4 * in_band < n
        found = None
        if in_band:
            np.multiply(inside, 0.5 / eps, out=curv)
            if w_mul is not None:
                _weigh(curv, w_mul)
            for j in range(d):
                np.multiply(z[:, j], curv, out=scaled[:, j])
            hess = scaled.T @ z
            scale = max(np.abs(hess.diagonal()).max(), 1.0)
            for _ in range(40):
                found = attempt(hess, scale, lam)
                if found is not None:
                    break
                lam *= 10.0
        else:
            # zero curvature: every candidate is theta - grad / lam_k on one
            # ray, so acceptance is monotone in k (module docstring) and a
            # search finds the smallest accepted k that the scan would,
            # starting near the solve's last accepted damping
            lams = [lam]
            for _ in range(39):
                lams.append(lams[-1] * 10.0)
            first = 0
            if hint is not None and hint[0] is not None:
                first = min(max(math.floor(math.log10(hint[0] / lam)), 0), 39)

            def accepts(k):
                nonlocal found
                cand = attempt(zero, 1.0, lams[k])
                if cand is not None:
                    found = cand
                return cand is not None

            k = _damping_search(accepts, first)
            if k is not None:
                lam = lams[k]
                if hint is not None:
                    hint[0] = lam
        if found is None:
            return theta, f, it, False
        improved = f - found[1]
        theta, f = found
        lam = max(lam * 0.3, 1e-12)
        if improved <= 1e-14 * max(1.0, abs(f)):
            return theta, f, it, True
    return theta, f, it, False


def _least_squares(zs, ys, w):
    """Weighted least squares: the schedule's start when none is given."""
    root = np.sqrt(w + 1e-300)
    return np.linalg.lstsq(zs * root[:, None], ys * root, rcond=None)[0]


def _solve(zs, ys, tau, w, schedule, theta=None):
    """The continuation schedule over every given row, from theta or, when
    None, from weighted least squares; returns theta, the Newton iterations
    and whether every stage converged."""
    if theta is None:
        theta = _least_squares(zs, ys, w)
    total_iter = 0
    converged = True
    hint = [None]  # the stages' last accepted zero-curvature damping
    for eps in schedule:
        theta, _, its, ok = _newton_stage(zs, ys, tau, w, theta, eps, hint=hint)
        total_iter += its
        converged = converged and ok
    return theta, total_iter, converged


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


def _reduced(zs, ys, w, lower, upper):
    """The rows outside both globs, then one row per glob of positive
    weight: its members' weighted means, weighted by their total weight (w
    is None for unit weights, and a glob's total is its member count)."""
    band = np.flatnonzero(~(lower | upper))
    rows_z, rows_y = [zs.take(band, axis=0)], [ys.take(band)]
    rows_w = [np.ones(band.size) if w is None else w.take(band)]
    wg = np.empty(zs.shape[0])
    for glob in (lower, upper):
        if w is None:
            np.copyto(wg, glob)
            total = float(np.count_nonzero(glob))
        else:
            np.multiply(w, glob, out=wg)
            total = float(wg.sum())
        if total > 0.0:
            rows_z.append((wg @ zs)[None, :] / total)
            rows_y.append(np.array([wg @ ys / total]))
            rows_w.append(np.array([total]))
    return np.concatenate(rows_z), np.concatenate(rows_y), np.concatenate(rows_w)


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
        zsub, ysub, wsub = p.zs[sub], p.ys[sub], p.w[sub]
        start = _least_squares(zsub, ysub, wsub)
        start.flags.writeable = False
        p.subsamples.append((zsub, ysub, wsub, start))
    return p.subsamples[j]


def _preprocessed_solve(problem, tau, schedule):
    """`_solve` of a prepared problem through the reduced problem of the
    module docstring, falling back to the full solve when no round is
    certified."""
    p = problem
    zs, ys, w = p.zs, p.ys, p.w
    w_band = None if p.unit_weights else w
    n, d = zs.shape
    eps = schedule[-1]
    m = math.ceil(math.sqrt(d) * n ** (2.0 / 3.0))
    draws = spent = 0
    theta = None
    r = np.empty(n)

    def residuals():
        np.matmul(zs, theta, out=r)
        return np.subtract(ys, r, out=r)

    for _ in range(_ROUNDS):
        if theta is None:
            if 2 * m >= n:
                break
            zsub, ysub, wsub, start = _subsample(p, draws, m)
            draws += 1
            theta, its, _ = _solve(zsub, ysub, tau, wsub, schedule[:_SUBSAMPLE_STAGES], start)
            spent += its
            lower, upper = _band(residuals(), w_band, tau, 2 * m)
        zr, yr, wr = _reduced(zs, ys, w_band, lower, upper)
        theta, its, ok = _solve(zr, yr, tau, wr, schedule, theta)
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
    theta, its, ok = _solve(zs, ys, tau, w, schedule)
    return theta, spent + its, ok


def _column_moments(z):
    """``z.mean(axis=0)`` and ``z.std(axis=0)``, bit for bit, with each
    column's passes over one contiguous copy of it."""
    n, d = z.shape
    if not z.flags.c_contiguous or d < 2:
        return z.mean(axis=0), z.std(axis=0)
    # numpy reduces axis 0 of a C-ordered array with two or more columns row
    # after row, one running sum per column, and accumulate is that sum
    mu, sd = np.empty(d), np.empty(d)
    col, acc = np.empty(n), np.empty(n)
    for j in range(d):
        np.copyto(col, z[:, j])
        mu[j] = np.add.accumulate(col, out=acc)[-1] / n
        col -= mu[j]
        col *= col
        sd[j] = np.sqrt(np.add.accumulate(col, out=acc)[-1] / n)
    return mu, sd


class CheckLossProblem:
    """A validated, standardized check-loss problem with no tau: the design,
    response and weights of ``fit_check_loss`` with its rank check done once,
    so ``fit_prepared`` can fit it at any number of taus.  A NaN or infinite
    value in the design, response or weights raises ``DomainError`` naming
    the array (the solver would run every stage to its iteration cap and
    return NaN).

    Standardization centers and scales the non-constant columns and the
    response; without a constant column centering would change the problem,
    so it scales only.
    """

    def __init__(self, design, y, weights=None):
        z = np.atleast_2d(np.asarray(design, dtype=float))
        y = np.asarray(y, dtype=float)
        n, d = z.shape
        if y.shape != (n,):
            raise ShapeError("response length does not match the design")
        if n <= d:
            raise DomainError(f"need more observations than parameters (n={n}, d={d})")
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ShapeError("weight length does not match the design")
        if weights is not None:
            if np.any(w < 0):
                raise DomainError("weights must be nonnegative")
            if not np.isfinite(w).all():
                raise DomainError("weights contain a NaN or infinite value")
        # a NaN or inf in the design or response makes its sd NaN (inf - inf
        # is NaN), and finite values too large to square make it inf; both
        # are silenced here, and only a non-finite sd leads to a look at the
        # values to tell the two apart
        with np.errstate(invalid="ignore", over="ignore"):
            col_mu, col_sd = _column_moments(z)
            y_sd = float(y.std())
        for name, values, sd in (("design", z, col_sd), ("response", y, y_sd)):
            if not np.isfinite(sd).all():
                if not np.isfinite(values).all():
                    raise DomainError(f"{name} contains a NaN or infinite value")
                raise DomainError(f"{name} values are too large: their variance overflows")

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
        # (z - col_mu) / col_sd with z's constant columns, one column at a
        # time into z's layout, which the solver's products depend on
        zs = np.empty_like(z)
        for j in range(d):
            if const_col[j]:
                zs[:, j] = z[:, j]
            else:
                np.subtract(z[:, j], col_mu[j], out=zs[:, j])
                zs[:, j] /= col_sd[j]
        # on zs, whose columns share one scale: the rank's relative
        # tolerance would drop a column of the raw design that is 1e14
        # times smaller than another
        if np.linalg.matrix_rank(zs) < d:
            raise RankError("design matrix is rank deficient")
        ys = (y - y_mu) / y_sd
        self.n = n
        self.z, self.y, self.w = z, y, w
        self.unit_weights = weights is None or not np.any(w != 1.0)
        # the reduced problem's subsample draws, made on first need (_subsample)
        self.subsamples = []
        self.subsample_rng = None
        self.zs, self.ys = zs, ys
        self.col_mu, self.col_sd, self.const_col = col_mu, col_sd, const_col
        self.y_mu, self.y_sd = y_mu, y_sd


def fit_prepared(problem: CheckLossProblem, tau):
    """Minimize sum_i w_i * rho_tau(y_i - design_i' theta) over theta for a
    prepared problem.

    Returns a FitResult whose theta is the raw coefficient vector in design
    order, iterations counts every Newton iteration the call ran, and
    converged says whether every continuation stage converged.
    """
    return _fit_schedule(problem, tau, constants.SMOOTHING_SCHEDULE)


def _fit_schedule(problem: CheckLossProblem, tau, schedule):
    """``fit_prepared`` through the given stages of the smoothing schedule:
    the full schedule, or a chain start's first stages."""
    if not (0.0 < tau < 1.0):
        raise DomainError(f"tau must lie in (0, 1), got {tau!r}")
    p = problem
    if p.n >= PREPROCESS_ROWS:
        theta_s, total_iter, converged = _preprocessed_solve(p, tau, schedule)
    else:
        theta_s, total_iter, converged = _solve(p.zs, p.ys, tau, p.w, schedule)

    # undo standardization: y = y_mu + y_sd * ys, z_j = col_mu_j + col_sd_j * zs_j
    const_col = p.const_col
    theta = np.where(const_col, theta_s * p.y_sd, theta_s * p.y_sd / p.col_sd)
    shift = float(np.sum(np.where(const_col, 0.0, theta * p.col_mu)))
    if np.any(const_col):
        # absorb the response centering into the (first) constant column
        j = int(np.nonzero(const_col)[0][0])
        cval = p.z[0, j]
        theta[j] = theta[j] + (p.y_mu - shift) / cval
    return FitResult(theta=theta, iterations=total_iter, converged=converged)


def fit_check_loss(design, y, tau, weights=None):
    """``fit_prepared`` at one tau, on ``CheckLossProblem(design, y, weights)``."""
    return fit_prepared(CheckLossProblem(design, y, weights), tau)


def _direction_design(data: Dataset, direction: Direction, basis: OrthoBasis | None = None):
    """Direction u's design [y_perp, x, 1] and its response y_u, the
    coefficient order (beta_y, beta_x, alpha) of fits and chains alike."""
    projected = project(data, direction, basis)
    return np.column_stack([projected.y_perp, data.x, np.ones(data.n)]), projected.y_u


def _direction_problem(data: Dataset, direction: Direction,
                       basis: OrthoBasis | None = None) -> CheckLossProblem:
    """The prepared problem of direction u's ``_direction_design``.  It
    depends on u only, so one serves every tau."""
    return CheckLossProblem(*_direction_design(data, direction, basis))


def frequentist_fit(data: Dataset, direction: Direction, basis: OrthoBasis | None = None) -> FitResult:
    """Check-loss fit of the directional quantile hyperplane for one direction.

    The design is [y_perp, x, 1] so the coefficient order is
    (beta_y, beta_x, alpha), matching the samplers.
    """
    raw = fit_prepared(_direction_problem(data, direction, basis), direction.tau)
    params = HyperplaneParams.from_vector(raw.theta, data.k, data.p)
    return FitResult(theta=params, iterations=raw.iterations, converged=raw.converged)
