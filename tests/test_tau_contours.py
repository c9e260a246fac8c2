"""Multi-tau contours against the per-(tau, u) path they replace.

``tau_contours`` prepares each direction's design once and fits every tau on
it, or starts every tau's chain from fits on it.  The reference here
rebuilds each (tau, u) fit from public pieces, with its own projection,
design and ``fit_check_loss`` call, and the polygons must agree byte for
byte on both sides of ``optimize.PREPROCESS_ROWS``.  Frozen digests pin the
frequentist polygons' bytes, the Bayes polygons' and chains' bytes, and a
tube grid's slices, one ``tube_slice`` call each or one ``tube_slices`` call.
"""

import hashlib

import numpy as np
import pytest

from dirquant import contours, optimize, samplers, simlab
from dirquant.ald import HyperplaneParams
from dirquant.contours import intersect_halfplanes, tau_contours, to_upper_halfplane
from dirquant.errors import DomainError
from dirquant.geometry import Dataset, Direction, orthonormal_complement, project, unit_directions
from dirquant.optimize import fit_check_loss


def _per_fit_contour(data, tau, n_directions, x_eval=None):
    planes = []
    for u in unit_directions(n_directions):
        direction = Direction(u=u, tau=tau)
        basis = orthonormal_complement(u)
        projected = project(data, direction, basis)
        design = np.column_stack([projected.y_perp, data.x, np.ones(data.n)])
        raw = fit_check_loss(design, projected.y_u, tau)
        theta = HyperplaneParams.from_vector(raw.theta, data.k, data.p)
        planes.append(to_upper_halfplane(theta, direction, basis, x_eval=x_eval))
    return intersect_halfplanes(planes, tau=tau)


def _assert_same_polygons(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.tau == b.tau and a.n_directions == b.n_directions
        assert a.vertices.dtype == b.vertices.dtype and a.vertices.shape == b.vertices.shape
        assert a.vertices.tobytes() == b.vertices.tobytes()


@pytest.fixture(scope="module")
def scores():
    # 1e5 jittered integer test scores, as the frequentist contour command
    # sees them: every fit takes the preprocessed path
    cols = simlab.make_star_like(100_000, seed=3)
    jitter = np.random.default_rng(4).uniform(0.0, 1.0, (100_000, 2))
    return Dataset(y=np.column_stack([cols["math"], cols["read"]]) + jitter)


def test_bytes_below_preprocess_rows():
    rng = np.random.default_rng(21)
    data = Dataset(y=rng.standard_normal((3000, 2)) @ np.array([[1.0, 0.4], [0.0, 2.0]]))
    taus = (0.05, 0.2, 0.4)
    assert data.n < optimize.PREPROCESS_ROWS
    _assert_same_polygons(tau_contours(data, taus, 32, estimator="frequentist"),
                          [_per_fit_contour(data, tau, 32) for tau in taus])


def test_bytes_with_a_covariate():
    rng = np.random.default_rng(22)
    x = rng.uniform(-1.0, 1.0, (2000, 1))
    data = Dataset(y=rng.standard_normal((2000, 2)) + x, x=x)
    taus = (0.1, 0.3)
    _assert_same_polygons(tau_contours(data, taus, 16, estimator="frequentist", x_eval=0.3),
                          [_per_fit_contour(data, tau, 16, x_eval=0.3) for tau in taus])


def test_bytes_at_or_above_preprocess_rows(scores):
    taus = (0.05, 0.4)
    assert scores.n >= optimize.PREPROCESS_ROWS
    _assert_same_polygons(tau_contours(scores, taus, 16, estimator="frequentist"),
                          [_per_fit_contour(scores, tau, 16) for tau in taus])


def _preparation_counts(monkeypatch, estimator, **kwargs):
    """Rank checks, projections and fits (or chain starts) of a 3-tau,
    32-direction contour."""
    data = Dataset(y=np.random.default_rng(23).standard_normal((400, 2)))
    counts = {"rank": 0, "project": 0, "fit": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimize, "_full_rank", counting("rank", optimize._full_rank))
    counted_project = counting("project", project)
    for module in (optimize, contours):
        monkeypatch.setattr(module, "project", counted_project)
    monkeypatch.setattr(contours, "fit_prepared", counting("fit", optimize.fit_prepared))
    monkeypatch.setattr(samplers, "fit_prepared", counting("fit", optimize.fit_prepared))
    polys = tau_contours(data, (0.05, 0.2, 0.4), 32, estimator=estimator, **kwargs)
    assert [poly.tau for poly in polys] == [0.05, 0.2, 0.4]
    return counts


def test_each_direction_is_prepared_once(monkeypatch):
    # 3 taus x 32 directions: 96 fits on 32 prepared problems
    assert _preparation_counts(monkeypatch, "frequentist") == {"rank": 32, "project": 32, "fit": 96}


def test_each_bayes_direction_is_prepared_once(monkeypatch):
    # 96 chains start from fits on 32 prepared problems
    counts = _preparation_counts(monkeypatch, "bayes-mean", n_draws=20, burn_in=5)
    assert counts == {"rank": 32, "project": 32, "fit": 96}


@pytest.mark.parametrize("estimator, kwargs", [("frequentist", {}),
                                               ("bayes-mean", {"n_draws": 20, "burn_in": 5})])
def test_each_direction_solves_least_squares_once(monkeypatch, estimator, kwargs):
    # the full solve's start is kept on the prepared problem, read-only, so
    # the 96 fits or chain starts of 32 directions make 32 lstsq calls
    data = Dataset(y=np.random.default_rng(23).standard_normal((400, 2)))
    calls, starts = [], []
    real_lstsq, real_start = np.linalg.lstsq, optimize._full_start

    def lstsq(*args, **kwargs):
        calls.append(1)
        return real_lstsq(*args, **kwargs)

    def full_start(problem):
        starts.append(real_start(problem))
        return starts[-1]

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    monkeypatch.setattr(optimize, "_full_start", full_start)
    tau_contours(data, (0.05, 0.2, 0.4), 32, estimator=estimator, **kwargs)
    assert len(calls) == 32 and len(starts) == 96
    assert not any(start.flags.writeable for start in starts)


def test_each_tube_direction_and_x0_is_prepared_once(monkeypatch, projections):
    # 3 taus x 2 x0s x 8 directions: 48 chains from 8 projections, 2
    # kernel-weight vectors, 16 weighted start problems and 8 random streams
    counts = {"kernel_weights": 0, "CheckLossProblem": 0, "_rng_from_seed": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    for key in counts:
        for module in (contours, samplers):
            if hasattr(module, key):
                monkeypatch.setattr(module, key, counting(key, getattr(module, key)))
    grid = contours.tube_slices(_tube_data(), (0.1, 0.25, 0.4), (-0.5, 0.5), samplers.KernelSpec(bandwidth=0.6),
                                n_directions=8, n_draws=20, burn_in=5)
    assert [[poly.tau for poly in row] for row in grid] == [[0.1, 0.1], [0.25, 0.25], [0.4, 0.4]]
    assert len(projections) == 8
    assert counts == {"kernel_weights": 2, "CheckLossProblem": 16, "_rng_from_seed": 8}


def test_tau_contour_is_one_tau_of_tau_contours():
    data = Dataset(y=np.random.default_rng(24).uniform(-0.5, 0.5, (1500, 2)))
    for estimator, kwargs in (("frequentist", {}), ("bayes-mean", {"n_draws": 120, "burn_in": 20, "seed": 3})):
        many = tau_contours(data, (0.1, 0.3), 8, estimator=estimator, **kwargs)
        for poly in many:
            one = contours.tau_contour(data, poly.tau, 8, estimator=estimator, **kwargs)
            _assert_same_polygons([poly], [one])


@pytest.mark.parametrize("estimator", ["frequentist", "bayes-mean"])
def test_bad_tau_fails_before_any_fit(estimator, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit or chain ran before every tau was checked")

    monkeypatch.setattr(contours, "fit_prepared", no_fit)
    monkeypatch.setattr(contours, "_unconditional_problem", no_fit)
    data = Dataset(y=np.random.default_rng(25).standard_normal((200, 2)))
    with pytest.raises(DomainError, match="depth must lie in"):
        tau_contours(data, (0.2, 1.5), 8, estimator=estimator)


def test_bayes_starts_are_the_frequentist_fits(monkeypatch):
    # a 32-direction, 3-tau Bayes contour's chains start from its
    # frequentist contour's fits, byte for byte, in the same grid order
    data = Dataset(y=np.random.default_rng(28).standard_normal((2000, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]]))
    taus = (0.05, 0.2, 0.4)
    starts, fits = [], []
    real_chains, real_fit = contours._isolated_chains, contours.fit_prepared

    def chains(problems, *args):
        starts.extend(problem.theta0.tobytes() for problem in problems)
        return real_chains(problems, *args)

    def fit(*args):
        result = real_fit(*args)
        fits.append(result.theta.tobytes())
        return result

    monkeypatch.setattr(contours, "_isolated_chains", chains)
    monkeypatch.setattr(contours, "fit_prepared", fit)
    tau_contours(data, taus, 32, n_draws=20, burn_in=5, seed=3)
    tau_contours(data, taus, 32, estimator="frequentist")
    assert len(starts) == len(fits) == 96
    assert starts == fits


# sha256 over the vertex bytes of the 3 taus' frequentist polygons (8
# directions on the 1e5 scores, 16 on the 2e3 normal sample), as the code
# that ends every full-schedule fit at its certified vertex gave them
FROZEN_FREQUENTIST_SHA256 = {
    "2e3 normal": "a91545d727761cde4b40e9502ff9d2d4eb58291286019e683ffb4852377bbfc2",
    "1e5 scores": "e9864935632a705123c65288dedf8f108b77a1f7ad8bf963db9862b2ac6e9f9c",
}


@pytest.mark.parametrize("name", sorted(FROZEN_FREQUENTIST_SHA256))
def test_frequentist_polygons_keep_their_bytes(name, scores):
    if name == "1e5 scores":
        data, n_directions = scores, 8
    else:
        y = np.random.default_rng(16).standard_normal((2000, 2))
        data, n_directions = Dataset(y=y @ np.array([[1.0, 0.0], [0.6, 0.8]]) + 3.0), 16
    h = hashlib.sha256()
    for poly in tau_contours(data, (0.05, 0.2, 0.4), n_directions, estimator="frequentist"):
        h.update(poly.vertices.tobytes())
    assert h.hexdigest() == FROZEN_FREQUENTIST_SHA256[name]


# sha256 over the vertex bytes of a 3-tau, 8-direction Bayes contour set, and
# over its 24 chains' draws (sorted byte strings), as the code gave them when
# each (tau, direction) chain drew its own random stream, with every chain
# started at the certified check-loss fit
FROZEN_BAYES_SHA256 = {
    "polygons": "a4284c3aa529ddea34de4989f789599389a1139d9be6c529b165c007fc054b73",
    "chains": "942d07efefea0b7e7f357f59ec539cb5e24384cee1446fb2ab5f514693086802",
}


def test_bayes_polygons_and_chains_keep_their_bytes(monkeypatch):
    y = np.random.default_rng(26).standard_normal((400, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
    draws = []
    real = contours.posterior_mean

    def spy(chain):
        draws.append(chain.draws.tobytes())
        return real(chain)

    monkeypatch.setattr(contours, "posterior_mean", spy)
    polys = tau_contours(Dataset(y=y), (0.1, 0.25, 0.4), 8, n_draws=60, burn_in=10, seed=7)
    h = hashlib.sha256()
    for poly in polys:
        h.update(poly.vertices.tobytes())
    assert len(draws) == 24
    assert h.hexdigest() == FROZEN_BAYES_SHA256["polygons"]
    assert hashlib.sha256(b"".join(sorted(draws))).hexdigest() == FROZEN_BAYES_SHA256["chains"]


# sha256 over the vertex bytes of a 2-tau x 2-x0 tube grid, 8 directions, one
# digest per design, slices in [tau][x0] order, as one ``tube_slice`` call per
# slice gave them, with every chain started at the certified check-loss fit
FROZEN_TUBE_SHA256 = {
    "local-constant": "7279ce72e46e7413b4e7aadb8a395a7c0fc553e71889d9f9a27f343aa6164afc",
    "local-bilinear": "1cb33ff6d540923c1e60b48ada47532bb3c8a5d8ad4e5f2d8564e8c793c2e2df",
}


def _tube_data():
    rng = np.random.default_rng(27)
    x = rng.normal(0.0, 1.0, (400, 1))
    y = rng.standard_normal((400, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
    y[:, 1] += 0.5 * x[:, 0]
    return Dataset(y=y, x=x)


@pytest.mark.parametrize("grid", [False, True], ids=["per-slice", "grid"])
@pytest.mark.parametrize("kind", sorted(FROZEN_TUBE_SHA256))
def test_tube_slices_keep_their_bytes(kind, grid):
    data, taus, x0s = _tube_data(), (0.15, 0.3), (-0.5, 0.5)
    settings = dict(design_kind=kind, n_directions=8, n_draws=60, burn_in=10, seed=7)
    kernel = samplers.KernelSpec(bandwidth=0.6)
    if grid:
        polys = [poly for row in contours.tube_slices(data, taus, x0s, kernel, **settings) for poly in row]
    else:
        polys = [contours.tube_slice(data, tau, x0, kernel, **settings) for tau in taus for x0 in x0s]
    h = hashlib.sha256()
    for poly in polys:
        assert poly.vertices.shape[0] >= 3
        h.update(poly.vertices.tobytes())
    assert h.hexdigest() == FROZEN_TUBE_SHA256[kind]
