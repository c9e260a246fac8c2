"""Full-schedule check-loss fits against an exact LP oracle.

``lp_oracle`` enumerates every d-row basis of problems small enough for it
(n <= 40, d in {2, 3}).  A fit on continuous data must return the oracle's
basis and its theta; on unjittered integer scores, where ties at the
optimum are common, a fit is either that exact vertex or, when no vertex is
certified, the smoothed fit within the schedule's tolerance of the minimum.
The vertex certificate is also checked on every basis of the standardized
problem: it accepts only the oracle's unique, nondegenerate optimum.
"""

import itertools

import numpy as np
import pytest

import lp_oracle
from dirquant import optimize
from dirquant.optimize import CheckLossProblem, fit_check_loss

TAUS = (0.05, 0.5, 0.9)


def _problem(n, d, seed, weighted, integer=False):
    rng = np.random.default_rng(seed)
    if integer:
        x = rng.integers(0, 8, (n, d - 1)).astype(float)
        y = x @ np.arange(1.0, d) + rng.integers(-4, 5, n)
    else:
        x = rng.standard_normal((n, d - 1)) * [3.0, 0.5][:d - 1] + 10.0
        y = x @ np.linspace(0.5, -1.0, d - 1) + rng.standard_t(3, n)
    z = np.column_stack([x, np.ones(n)])
    w = rng.uniform(0.2, 3.0, n) if weighted else None
    return z, y, w


def _cases(integer):
    for d, weighted, tau in itertools.product((2, 3), (False, True), TAUS):
        for n, seed in ((12, 1), (25, 2), (40, 3)):
            yield d, weighted, tau, n, seed + 10 * d + (100 if weighted else 0) + (1000 if integer else 0)


def _vertex_of(z, y, theta):
    """(rows, vertex): the d rows whose residuals lie nearest 0 at theta,
    in increasing order, and the theta fitting them exactly (None when they
    fit no single theta)."""
    d = z.shape[1]
    rows = np.sort(np.argsort(np.abs(y - z @ theta), kind="stable")[:d])
    try:
        return tuple(rows), np.linalg.solve(z[rows], y[rows])
    except np.linalg.LinAlgError:
        return tuple(rows), None


def _close(a, b, rel):
    return np.abs(a - b).max() <= rel * np.abs(b).max()


@pytest.mark.parametrize("d, weighted, tau, n, seed", list(_cases(integer=False)))
def test_fit_is_the_oracle_vertex(d, weighted, tau, n, seed):
    z, y, w = _problem(n, d, seed, weighted)
    best = lp_oracle.optimum(z, y, tau, w)
    assert best.basis is not None  # continuous data: one nondegenerate optimum
    fit = fit_check_loss(z, y, tau, weights=w)
    assert fit.converged
    rows, _ = _vertex_of(z, y, fit.theta)
    assert rows == best.basis
    assert _close(fit.theta, best.theta, 1e-12), (fit.theta, best.theta)


@pytest.mark.parametrize("d, weighted, tau, n, seed", list(_cases(integer=True)))
def test_integer_scores_are_exact_or_within_the_smoothing_tolerance(d, weighted, tau, n, seed):
    z, y, w = _problem(n, d, seed, weighted, integer=True)
    best = lp_oracle.optimum(z, y, tau, w)
    fit = fit_check_loss(z, y, tau, weights=w)
    rows, vertex = _vertex_of(z, y, fit.theta)
    loss = lp_oracle.check_loss(y - z @ fit.theta, tau, w)
    if vertex is not None and _close(fit.theta, vertex, 1e-12):
        # a certified vertex is the unique minimizer, through the oracle's basis
        assert best.basis is not None and rows == best.basis
        assert _close(fit.theta, best.theta, 1e-12)
    else:
        # the last smoothed iterate: eps = 1e-8 in standardized units costs at
        # most eps / 4 per unit weight over the check loss, in y's units
        sw = float(n if w is None else np.sum(w))
        assert loss <= best.loss + 1e-8 * sw * float(np.std(y))


@pytest.mark.parametrize("integer", [False, True])
def test_certificate_accepts_only_the_oracle_basis(integer):
    # every basis of small standardized problems: a certified basis is the
    # oracle's unique nondegenerate optimum, and on continuous data that
    # optimum is certified.  Integer scores give degenerate vertices, where
    # more than d residuals vanish, and optima tied along an edge
    certified = optimal = 0
    for d, weighted, tau, _, seed in _cases(integer):
        z, y, w = _problem(16, d, seed, weighted, integer)
        p = CheckLossProblem(z, y, w)
        best = lp_oracle.optimum(p.zs, p.ys, tau, p.w)
        extent = optimize._extent(p.zs, p.ys)
        for basis in itertools.combinations(range(16), d):
            if optimize._certify(p.zs, p.ys, tau, p.w, np.array(basis), extent) is not None:
                certified += 1
                assert basis == best.basis, (d, weighted, tau, seed, basis)
        if best.basis is not None:
            optimal += 1
            if not integer:
                theta = optimize._certify(p.zs, p.ys, tau, p.w, np.array(best.basis), extent)
                assert theta is not None, (d, weighted, tau, seed)
    assert certified == optimal or integer
    assert certified > 0
