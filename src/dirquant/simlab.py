"""Data generating processes and the Monte Carlo study driver.

Four DGPs: uniform square, uniform triangle, a correlated bivariate normal,
and a normal regression model with one covariate.  ``simulation_tables``
replicates sampling + estimation over a seed-derived grid of cells and
builds any of ``TABLES`` from one pass: the unconditional RMSE, subgradient
and interval-coverage tables share their chains, and the conditional
model's RMSE table runs in the same fan-out (at most one worker pool per
study).  Each failed replication is returned with the reason it failed.

The fan-out runs the study's replications through the samplers' runner, as
the contours do: grouped by sample size n, across cells, into chunks of at
most ``samplers._ROW_BUDGET`` chain rows (chains x n).  A chunk prepares
each replication (dataset, projected response, design, kernel weights, init
fit and chain seed), stacks the prepared chains by (n, d) into one call of
the samplers' engine each, with one Generator per chain, and summarises each
replication from its chain.  Conditional chains and unconditional location
chains of one n share d = 2 and so share a call.  A chain's bytes do not
depend on the chains stacked with it, so the tables are those of one chain
per replication.  If an engine call raises, its chains are rerun one by
one, so only the failing replication fails.  With ``workers`` > 1 the
chunks go to one ``spawn`` pool.  The oracles of a study are fitted cell by
cell on one Monte Carlo sample at a time: each DGP's, drawn once and freed
before the next DGP's, then the conditional law's, drawn once per study.

The regression DGP draws (x, z) jointly normal and returns y = z + (0, x)'.
Its conditional experiments use the correlated pair without that level
shift (``dgp4_conditional_sample``), so the response given x = x0 is
N((0, x0/2), [[1, 1.5], [1.5, 8]]), the law the conditional oracle targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ald import HyperplaneParams
from .errors import DomainError
from .geometry import Dataset, Direction, orthonormal_complement, project
from .inference import (
    asymptotic_ci,
    naive_ci,
    posterior_mcse,
    posterior_vector,
    subgradient_diagnostics,
)
from .optimize import frequentist_fit
from .samplers import (
    KernelSpec,
    _chunks,
    _conditional_problem,
    _isolated_chains,
    _rng_from_seed,
    _unconditional_problem,
    _vague_prior,
    default_bandwidth,
    make_conditional_design,
    unconditional_param_names,
)

__all__ = [
    "DgpSpec",
    "ExperimentConfig",
    "dgp_sample",
    "dgp4_conditional_sample",
    "dgp_stacked_mean",
    "population_params_oracle",
    "conditional_params_oracle",
    "simulation_tables",
    "TABLES",
    "make_star_like",
    "DESK_PROFILE",
    "PAPER_PROFILE",
]

_TRIANGLE = (
    np.array([-0.5, -1.0 / (2.0 * np.sqrt(3.0))]),
    np.array([0.5, -1.0 / (2.0 * np.sqrt(3.0))]),
    np.array([0.0, 1.0 / np.sqrt(3.0)]),
)
_SIGMA_NORMAL = np.array([[1.0, 1.5], [1.5, 9.0]])
# joint covariance of (x, z1, z2) for the regression DGP
_SIGMA_JOINT = np.array([[4.0, 0.0, 2.0], [0.0, 1.0, 1.5], [2.0, 1.5, 9.0]])
_SIGMA_COND = np.array([[1.0, 1.5], [1.5, 8.0]])


@dataclass(frozen=True)
class DgpSpec:
    """One of the four data generating processes, a sample size, and a seed."""

    id: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.id not in (1, 2, 3, 4):
            raise DomainError(f"unknown DGP id {self.id!r}")
        if self.n < 1:
            raise DomainError("sample size must be positive")


def dgp_sample(spec: DgpSpec) -> Dataset:
    """Draw n i.i.d. rows from the requested process."""
    rng = _rng_from_seed(spec.seed)
    n = spec.n
    if spec.id == 1:
        return Dataset(y=rng.uniform(-0.5, 0.5, size=(n, 2)))
    if spec.id == 2:
        a, b, c = _TRIANGLE
        u = rng.uniform(size=(n, 1))
        v = rng.uniform(size=(n, 1))
        flip = (u + v) > 1.0
        u = np.where(flip, 1.0 - u, u)
        v = np.where(flip, 1.0 - v, v)
        return Dataset(y=a + u * (b - a) + v * (c - a))
    if spec.id == 3:
        chol = np.linalg.cholesky(_SIGMA_NORMAL)
        return Dataset(y=rng.standard_normal((n, 2)) @ chol.T)
    chol = np.linalg.cholesky(_SIGMA_JOINT)
    xz = rng.standard_normal((n, 3)) @ chol.T
    # copies, so that no view keeps the (n, 3) draw alive
    x = xz[:, :1].copy()
    y = xz[:, 1:].copy()
    y[:, 1] += x[:, 0]
    return Dataset(y=y, x=x)


def dgp4_conditional_sample(n: int, seed: int = 0) -> Dataset:
    """Correlated (x, response) pair whose response given x = x0 is
    N((0, x0/2), [[1, 1.5], [1.5, 8]])."""
    rng = _rng_from_seed(seed)
    chol = np.linalg.cholesky(_SIGMA_JOINT)
    xz = rng.standard_normal((n, 3)) @ chol.T
    return Dataset(y=xz[:, 1:], x=xz[:, :1])


def dgp_stacked_mean(dgp_id: int, k: int = 2) -> np.ndarray:
    """Population mean of the stacked regressors [y_perp, x].

    Every process here is mean centered (the square and triangle are centered
    on the origin, the normals have zero mean, and the covariate has zero
    mean), so the stacked mean is exactly zero in any orthonormal basis.
    """
    if dgp_id not in (1, 2, 3, 4):
        raise DomainError(f"unknown DGP id {dgp_id!r}")
    p = 1 if dgp_id == 4 else 0
    return np.zeros(k - 1 + p)


_ORACLE_SEED = 987_654_321


def _oracle_sample(dgp_id: int, mc_size: int, seed: int = _ORACLE_SEED) -> Dataset:
    if mc_size < 100_000:
        raise DomainError("oracle needs at least 1e5 Monte Carlo draws")
    return dgp_sample(DgpSpec(id=dgp_id, n=mc_size, seed=seed))


def population_params_oracle(
    dgp_id: int,
    direction: Direction,
    mc_size: int = 1_000_000,
    seed: int = _ORACLE_SEED,
    basis=None,
) -> HyperplaneParams:
    """Population hyperplane parameters by check-loss fit on a large MC sample."""
    data = _oracle_sample(dgp_id, mc_size, seed)
    return frequentist_fit(data, direction, basis=basis).theta


_CONDITIONAL_ORACLE_SEED = 192_837_465


def _conditional_oracle_sample(x0: float, mc_size: int, seed: int = _CONDITIONAL_ORACLE_SEED) -> Dataset:
    """Monte Carlo sample of the regression DGP's conditional law at x0."""
    if mc_size < 100_000:
        raise DomainError("oracle needs at least 1e5 Monte Carlo draws")
    rng = _rng_from_seed(seed)
    chol = np.linalg.cholesky(_SIGMA_COND)
    y = rng.standard_normal((mc_size, 2)) @ chol.T
    y[:, 1] += 0.5 * float(x0)
    return Dataset(y=y)


def conditional_params_oracle(
    x0: float,
    direction: Direction,
    mc_size: int = 1_000_000,
    seed: int = _CONDITIONAL_ORACLE_SEED,
    basis=None,
) -> tuple[float, float]:
    """Location-model parameters of the regression DGP's conditional law at x0."""
    sample = _conditional_oracle_sample(x0, mc_size, seed)
    theta = frequentist_fit(sample, direction, basis=basis).theta
    return float(theta.alpha), float(theta.beta_y[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and sampler settings for one simulation study."""

    dgps: tuple = (1, 2, 3, 4)
    directions: tuple = ((1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)), (0.0, 1.0))
    taus: tuple = (0.2,)
    sample_sizes: tuple = (100, 1000)
    replications: int = 25
    n_draws: int = 1000
    burn_in: int = 200
    master_seed: int = 20260801
    oracle_mc_size: int = 1_000_000
    basis_convention: str = "positive"
    x0: float = 1.0  # conditional experiments only
    level: float = 0.95

    def cells(self):
        for dgp in self.dgps:
            for u in self.directions:
                for tau in self.taus:
                    for n in self.sample_sizes:
                        yield dgp, tuple(u), tau, n


DESK_PROFILE = ExperimentConfig()
PAPER_PROFILE = ExperimentConfig(
    sample_sizes=(100, 1000, 10_000),
    replications=100,
    n_draws=1000,
    burn_in=200,
)


TABLES = ("rmse", "subgradient", "coverage", "conditional")


def _rep_seed(master: int, cell_index: int, rep: int, stream: int = 0) -> int:
    ss = np.random.SeedSequence((int(master), int(cell_index), int(rep), int(stream)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _prepare_cell(args):
    """One unconditional replication up to its chain: dataset, prior and the
    prepared chain, plus what ``_summarise_cell`` needs of them."""
    (dgp, u, tau, n, convention, level, data_seed, chain_seed) = args
    direction = Direction(u=np.asarray(u), tau=tau)
    basis = orthonormal_complement(direction.u, convention=convention)
    data = dgp_sample(DgpSpec(id=dgp, n=n, seed=data_seed))
    prior = _vague_prior(data.k + data.p)
    problem = _unconditional_problem(data, direction, prior, seed=chain_seed, basis=basis)
    return problem, (dgp, level, data_seed, data, direction, basis)


def _summarise_cell(context, chain):
    """One unconditional replication's summary.  Location models (p = 0,
    k = 2) also get their asymptotic and naive intervals."""
    dgp, level, data_seed, data, direction, basis = context
    estimate = posterior_vector(chain)
    theta = HyperplaneParams.from_vector(estimate, data.k, data.p)
    report = subgradient_diagnostics(data, direction, theta, basis=basis)
    out = {
        "data_seed": data_seed,
        "estimate": estimate,
        "mcse": posterior_mcse(chain),
        "sg1": report.sg1,
        "sg2": report.sg2,
        "sg2_target": direction.tau * dgp_stacked_mean(dgp, data.k),
    }
    if data.p == 0 and data.k == 2:
        ci = asymptotic_ci(chain, data, direction, level=level, basis=basis)
        nci = naive_ci(chain, level=level)
        out["ci"] = (ci.lower, ci.upper)
        out["naive"] = (nci.lower, nci.upper)
    return out


def _prepare_conditional(args):
    """One conditional replication up to its chain; its summary needs no context."""
    (u, tau, n, x0, convention, data_seed, chain_seed) = args
    direction = Direction(u=np.asarray(u), tau=tau)
    basis = orthonormal_complement(direction.u, convention=convention)
    data = dgp4_conditional_sample(n, seed=data_seed)
    projected = project(data, direction, basis)
    design = make_conditional_design(projected, data.x, np.array([x0]), "local-constant")
    kernel = KernelSpec(bandwidth=default_bandwidth(data.x))
    prior = _vague_prior(design.dim)
    problem = _conditional_problem(data, direction, design, kernel, prior, seed=chain_seed)
    return problem, None


def _summarise_conditional(context, chain):
    return {"estimate": posterior_vector(chain)}  # (alpha, beta_y)


def _run_chunk(task):
    """Prepare, run and summarise one chunk of replications that share n.

    Each replication is (prepare, summarise, args): ``prepare(args)`` gives
    its chain problem and a context, and ``summarise(context, chain)`` its
    summary.  The prepared chains are stacked by (n, d), one engine call per
    shape, whichever ``prepare`` made them.  Returns ("ok", summary) or
    ("err", repr) per replication, in order: a failure anywhere fails only
    its own replication.  Top level so the fan-out can send it to worker
    processes.
    """
    n_draws, burn_in, chunk = task
    outcomes = [None] * len(chunk)
    shapes = {}  # (n, d) -> [(position, problem, summarise, context)]
    for i, (prepare, summarise, args) in enumerate(chunk):
        try:
            problem, context = prepare(args)
        except Exception as exc:
            outcomes[i] = ("err", repr(exc))
            continue
        shapes.setdefault(problem.design.shape, []).append((i, problem, summarise, context))
    for group in shapes.values():
        chains = _isolated_chains([problem for _, problem, _, _ in group], n_draws, burn_in)
        for (i, _, summarise, context), chain in zip(group, chains):
            if isinstance(chain, Exception):
                outcomes[i] = ("err", repr(chain))
                continue
            try:
                outcomes[i] = ("ok", summarise(context, chain))
            except Exception as exc:
                outcomes[i] = ("err", repr(exc))
    return outcomes


def _run_replications(tasks, n_draws, burn_in, workers=1):
    """("ok", summary) or ("err", repr) for each (n, (prepare, summarise,
    args)) in ``tasks``, in order.  Replications that share n are grouped
    into chunks of at most ``samplers._ROW_BUDGET`` chain rows, each run by
    ``_run_chunk``; with ``workers`` > 1 the chunks go to one ``spawn`` pool,
    so a script that asks for workers needs a ``__main__`` guard."""
    chunks = _chunks([n for n, _ in tasks], workers)
    jobs = [(n_draws, burn_in, [tasks[i][1] for i in chunk]) for chunk in chunks]
    outcomes = [None] * len(tasks)
    pool = None
    if workers > 1:  # spawn: forking a process whose BLAS may run threads is unsafe
        # imported here: every other command would pay for them at start-up
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        run = pool.map if pool else map
        for chunk, results in zip(chunks, run(_run_chunk, jobs)):
            for i, outcome in zip(chunk, results):
                outcomes[i] = outcome
    finally:
        if pool is not None:
            pool.shutdown()
    return outcomes


def _rows(values, width):
    """Per-replication vectors as an (R, width) array, also when R = 0."""
    return np.array(values, dtype=float).reshape(len(values), width)


def _mean(x):
    """Mean over replications (axis 0); NaN, without a warning, when there are none."""
    return np.full(x.shape[1:], np.nan) if len(x) == 0 else np.mean(x, axis=0)


def _rmse_and_se(sq_err):
    """RMSE over replications (axis 0) and its Monte Carlo standard error.

    The delta-method error sd(e^2) / (2 RMSE sqrt(R)) says how far the RMSE
    of R replications moves between studies, so a ratio to a reference value
    can be read against noise.  It is NaN below two replications, and the
    RMSE is NaN without replications.
    """
    sq_err = np.asarray(sq_err, dtype=float)
    rmse = np.sqrt(_mean(sq_err))
    reps = sq_err.shape[0]
    if reps < 2:
        return rmse, np.full_like(rmse, np.nan)
    spread = np.std(sq_err, axis=0, ddof=1) / np.sqrt(reps)
    with np.errstate(invalid="ignore", divide="ignore"):
        return rmse, np.where(rmse > 0, spread / (2.0 * rmse), 0.0)


def _coverage(lower, upper, truth) -> float:
    return float(_mean((lower <= truth) & (truth <= upper)))


def _rmse_rows(cell, names, truth, estimates, counts, column_bias=False):
    """RMSE table rows of a cell, one per parameter.  The bias sums the
    errors replication by replication, or, with ``column_bias`` (the
    conditional table), each parameter's alone, pairwise as numpy sums a
    column; from 8 replications on the two sums can round differently."""
    err = _rows(estimates, truth.size) - truth
    rmse, rmse_se = _rmse_and_se(err**2)
    bias = [_mean(e) for e in err.T] if column_bias else _mean(err)
    return [
        {**cell, "parameter": name, "oracle": float(truth[j]), "rmse": float(rmse[j]),
         "rmse_se": float(rmse_se[j]), "bias": float(bias[j]), **counts}
        for j, name in enumerate(names)
    ]


def simulation_tables(config: ExperimentConfig = DESK_PROFILE, workers: int = 1, tables=TABLES):
    """The named ``TABLES`` of a study, from a single replication pass.

    Every RMSE carries ``rmse_se``, its Monte Carlo standard error.  Coverage
    rows cover the location cells (DGPs 1-3) only, so a study of coverage
    alone draws no DGP 4 dataset.  ``conditional`` is the RMSE of the
    conditional local-constant fit at x0 against its oracle.  The
    ``replications`` rows keep each successful unconditional replication's
    chain-order posterior mean (``estimate``), its Monte Carlo standard error
    (``mcse``) and the ``data_seed`` that rebuilds its dataset with
    ``dgp_sample``; the ``failures`` rows name each failed replication's
    ``rep`` and ``error``.  A cell whose every replication failed keeps its
    rows, with NaN statistics and ``replications`` 0.

    Replication ``rep`` of a cell is seeded by ``_rep_seed`` from the cell's
    index: unconditional cells are numbered in ``config.cells()`` order and
    conditional cells from 10_000, so a cell's chains do not depend on the
    tables asked for.
    """
    tables = set(tables)
    if not tables or not tables <= set(TABLES):
        raise DomainError(f"tables must name some of {', '.join(TABLES)}, got {sorted(tables)}")
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    unconditional = tables - {"conditional"}
    cells = []  # (cell index, cell keys, prepare, summarise, args)
    if unconditional:
        for i, (dgp, u, tau, n) in enumerate(config.cells()):
            if dgp == 4 and unconditional == {"coverage"}:
                continue  # coverage covers the location models only
            cells.append((i, {"dgp": dgp, "u": u, "tau": tau, "n": n}, _prepare_cell,
                          _summarise_cell, (dgp, u, tau, n, config.basis_convention, config.level)))
    if "conditional" in tables:
        keys = [(tuple(u), tau, n) for u in config.directions for tau in config.taus
                for n in config.sample_sizes]
        cells.extend(
            (10_000 + i, {"u": u, "tau": tau, "n": n, "x0": config.x0}, _prepare_conditional,
             _summarise_conditional, (u, tau, n, config.x0, config.basis_convention))
            for i, (u, tau, n) in enumerate(keys)
        )
    reps, seed = config.replications, config.master_seed
    outcomes = _run_replications([
        (cell["n"], (prepare, summarise,
                     (*args, _rep_seed(seed, index, rep, 0), _rep_seed(seed, index, rep, 1))))
        for index, cell, prepare, summarise, args in cells for rep in range(reps)
    ], config.n_draws, config.burn_in, workers)

    out = {name: [] for name in (*TABLES, "replications", "failures")}
    oracles, sample = {}, {}
    for c, (_, cell, _, _, _) in enumerate(cells):
        source = cell.get("dgp", "conditional")  # the law the cell's oracle is fitted on
        key = (source, cell["u"], cell["tau"])
        if key not in oracles:
            if source not in sample:  # cells come law by law: draw each sample once
                sample.clear()  # free the previous law's sample before drawing the next
                sample[source] = (
                    _conditional_oracle_sample(config.x0, config.oracle_mc_size)
                    if source == "conditional" else _oracle_sample(source, config.oracle_mc_size)
                )
            direction = Direction(u=np.asarray(cell["u"]), tau=cell["tau"])
            basis = orthonormal_complement(direction.u, convention=config.basis_convention)
            oracles[key] = frequentist_fit(sample[source], direction, basis=basis).theta
        results, failures = [], []
        for rep, (status, payload) in enumerate(outcomes[c * reps:(c + 1) * reps]):
            if status == "ok":
                results.append(payload)
            else:  # record, never drop silently
                failures.append((rep, payload))
        out["failures"].extend({**cell, "rep": rep, "error": error} for rep, error in failures)
        counts = {"replications": len(results), "failed": len(failures)}
        estimates = [r["estimate"] for r in results]
        if source == "conditional":
            truth = np.array([oracles[key].alpha, oracles[key].beta_y[0]])
            out["conditional"] += _rmse_rows(cell, ("alpha", "beta_y_0"), truth, estimates,
                                             counts, column_bias=True)
            continue
        truth = oracles[key].as_vector()
        names = unconditional_param_names(len(oracles[key].beta_y) + 1, len(oracles[key].beta_x))
        out["replications"].extend(
            {**cell, "data_seed": r["data_seed"], "estimate": r["estimate"], "mcse": r["mcse"]}
            for r in results
        )
        out["rmse"] += _rmse_rows(cell, names, truth, estimates, counts)
        sg1 = np.array([r["sg1"] for r in results])
        sg2 = _rows([r["sg2"] for r in results], truth.size - 1)
        tgt = _rows([r["sg2_target"] for r in results], truth.size - 1)
        stats = [("subgrad1", (sg1 - cell["tau"]) ** 2), ("subgrad2_y", (sg2[:, 0] - tgt[:, 0]) ** 2)]
        if sg2.shape[1] > 1:
            stats.append(("subgrad2_x", np.mean((sg2[:, 1:] - tgt[:, 1:]) ** 2, axis=1)))
        for statistic, sq_err in stats:
            rmse, rmse_se = _rmse_and_se(sq_err)
            out["subgradient"].append({
                **cell, "statistic": statistic, "rmse": float(rmse),
                "rmse_se": float(rmse_se), **counts,
            })
        if source == 4:  # coverage covers the location models only
            continue
        lo, hi = (_rows([r["ci"][i] for r in results], truth.size) for i in (0, 1))
        nlo, nhi = (_rows([r["naive"][i] for r in results], truth.size) for i in (0, 1))
        for j, name in enumerate(names):
            out["coverage"].append({
                **cell, "parameter": name, "oracle": truth[j],
                "coverage": _coverage(lo[:, j], hi[:, j], truth[j]),
                "naive_coverage": _coverage(nlo[:, j], nhi[:, j], truth[j]),
                "width": float(_mean(hi[:, j] - lo[:, j])), **counts,
            })
    return {name: rows for name, rows in out.items()
            if name in tables or name in ("replications", "failures")}


def make_star_like(n: int = 2000, seed: int = 7) -> dict:
    """Synthetic test-score panel with the shape of a classroom study.

    Integer-valued mathematics and reading scores (discrete support, so ties
    occur), a small-classroom indicator, and years of teacher experience with
    a concave effect on scores.
    """
    rng = _rng_from_seed(seed)
    small = rng.integers(0, 2, size=n)
    experience = rng.integers(0, 26, size=n)
    gain = 12.0 * np.log1p(experience) / np.log(26.0)
    base = rng.multivariate_normal(
        mean=[520.0, 515.0], cov=[[900.0, 540.0], [540.0, 810.0]], size=n,
        method="cholesky",
    )
    math_score = np.rint(base[:, 0] + 8.0 * small + gain)
    read_score = np.rint(base[:, 1] + 7.0 * small + 0.8 * gain)
    return {
        "math": math_score,
        "read": read_score,
        "small_class": small.astype(float),
        "experience": experience.astype(float),
    }
