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
are those numpy gives a C-ordered array with d >= 2 columns: ``mean``/``std``
along axis 0 add row after row from 0.0, a running sum per column.
``_column_moments`` takes that sum over the columns themselves, strided
views and a broadcast constant included, _CHUNK = 8,192 rows at a time:
each chunk (or its squared deviations) goes into one 64 KiB buffer, its
first entry takes the sum so far, and ``np.add.accumulate`` carries it
on, so no n-length copy is made.  Every design takes this path, whatever
its layout, and zs and ``scaled`` are C-ordered: the solver's
``z @ theta``, ``z.T @ g`` and ``scaled.T @ z`` go to BLAS, whose kernels
for the other layout sum in another order (checked under OpenBLAS: the
bytes change).  At n = 1e5,
d = 2 (2-vCPU x86_64, one BLAS thread, best of repeats) the moments took
5.3 ms through numpy, 2.0 ms over an n-length copy of each column and
1.65 ms in chunks, and the standardization 2.7 ms by broadcast and
0.56 ms by columns.

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
other taus reuse them; they are freed with the problem.  The full solve's
least-squares start is kept the same way (``_full_start``), so the three
chain starts of a Bayes contour's direction make one ``lstsq``, not three.
The unit-weight globs of ``_reduced`` take their member count as their
total weight, which is what the sum of their 0/1 weights gives.

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
weights.  On a 1e5-row direction of a frequentist contour (jittered
star-like scores, d = 2) the problem holds 2.4 MB, three n-vectors; traced
by ``tracemalloc``, its preparation peaks at 3.06 MiB and its three fits
at 3.93 MiB, against 4.58 and 4.50 MiB when the problem was made from a
stacked design with an n-length copy per column for the moments.  On a
DGP 4 oracle's d = 3 direction the peaks are 3.82 and 5.08 MiB, against
6.10 and 5.89 MiB.

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
every decision is the SVD's.  At n = 1e5 the certificate took 0.6 ms
(d = 2) and 1.3 ms (d = 3) against the SVD's 1.7 and 2.8 ms (2-vCPU
x86_64, one BLAS thread).
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
    # w is None for unit weights, whose sum is n and whose products are
    # x * 1.0 == x; hint, when given, is a one-item list holding the last
    # accepted zero-curvature damping of the caller's solve (None before the
    # first); the stage starts its zero-curvature searches there and
    # updates it
    n, d = z.shape
    sw = float(n) if w is None else float(np.sum(w))
    w_mul = None if w is None else _stage_weights(w)
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


def _solve(zs, ys, tau, w, schedule, theta):
    """The continuation schedule over every given row (w is None for unit
    weights) from theta; returns theta, the Newton iterations and whether
    every stage converged."""
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


def _preprocessed_solve(problem, tau, schedule):
    """`_solve` of a prepared problem through the reduced problem of the
    module docstring, falling back to the full solve when no round is
    certified."""
    p = problem
    zs, ys, w = p.zs, p.ys, p.w
    n, d = zs.shape
    eps = schedule[-1]
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
            theta, its, _ = _solve(zsub, ysub, tau, wsub, schedule[:_SUBSAMPLE_STAGES], start)
            spent += its
            lower, upper = _band(residuals(), w, tau, 2 * m)
        zr, yr, wr = _reduced(zs, ys, w, lower, upper, r)
        theta, its, ok = _solve(zr, yr, tau, wr, schedule, theta)
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
    theta, its, ok = _solve(zs, ys, tau, w, schedule, _full_start(p))
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
        theta_s, total_iter, converged = _solve(p.zs, p.ys, tau, p.w, schedule, _full_start(p))

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
