import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from dirquant import samplers, simlab
from dirquant.errors import DomainError
from dirquant.geometry import Direction
from dirquant.priors import normal_quantile
from dirquant.inference import posterior_mcse, posterior_vector
from dirquant.geometry import orthonormal_complement, project
from dirquant.samplers import (
    KernelSpec,
    PriorSpec,
    default_bandwidth,
    gibbs_conditional,
    gibbs_unconditional,
    make_conditional_design,
)
from dirquant.simlab import (
    DgpSpec,
    ExperimentConfig,
    TABLES,
    conditional_params_oracle,
    dgp4_conditional_sample,
    dgp_sample,
    make_star_like,
    population_params_oracle,
    _rmse_and_se,
    simulation_tables,
)

UNCONDITIONAL = ("rmse", "subgradient", "coverage")
U45 = np.array([1.0, 1.0]) / np.sqrt(2.0)
U01 = np.array([0.0, 1.0])

SMALL = ExperimentConfig(
    dgps=(1,),
    directions=((0.0, 1.0),),
    taus=(0.2,),
    sample_sizes=(80, 400),
    replications=4,
    n_draws=300,
    burn_in=60,
    master_seed=11,
    oracle_mc_size=100_000,
)

# SMALL's rmse and subgradient rows, frozen from the one study pass:
# (cell, (rmse, bias)) per rmse row, (cell, (rmse,)) per subgradient row.
# The oracle and the values measured against it follow the 1e5-row oracle
# fit, the certified vertex of optimize's preprocessed path; the estimates
# and the subgradient rows do not depend on it.  Chains start from the
# certified check-loss fit (optimize.fit_prepared), and the chain-derived
# values are those of that start
_CELL = {"dgp": 1, "u": (0.0, 1.0), "tau": 0.2}
FROZEN_RMSE = [
    ({**_CELL, "n": 80, "parameter": "beta_y_0"}, (0.11931147219384887, 0.09214527019778243)),
    ({**_CELL, "n": 80, "parameter": "alpha"}, (0.04981029573874878, 0.02003600732333044)),
    ({**_CELL, "n": 400, "parameter": "beta_y_0"}, (0.06046728941332654, -0.01855936238641564)),
    ({**_CELL, "n": 400, "parameter": "alpha"}, (0.01291334615971883, -0.0035230843194600375)),
]
FROZEN_SUBGRAD = [
    ({**_CELL, "n": 80, "statistic": "subgrad1"}, (0.031250000000000014,)),
    ({**_CELL, "n": 80, "statistic": "subgrad2_y"}, (0.012756447941901908,)),
    ({**_CELL, "n": 400, "statistic": "subgrad1"}, (0.013750000000000007,)),
    ({**_CELL, "n": 400, "statistic": "subgrad2_y"}, (0.0025582646008060817,)),
]
# SMALL's conditional rows at 16 replications, frozen from the same pass:
# (cell, (oracle, rmse, rmse_se, bias)).  From 8 replications on, the bias's
# summation order can show in its last bits
_CONDITIONAL_CELL = {"u": (0.0, 1.0), "tau": 0.2, "x0": 1.0}
FROZEN_CONDITIONAL = [
    ({**_CONDITIONAL_CELL, "n": 80, "parameter": "alpha"},
     (-1.5331584317624851, 1.019081237245679, 0.06588245689778546, -0.9880512064415186)),
    ({**_CONDITIONAL_CELL, "n": 80, "parameter": "beta_y_0"},
     (1.507261625248955, 0.36964102524517467, 0.058143491287492875, -0.1686934493419583)),
    ({**_CONDITIONAL_CELL, "n": 400, "parameter": "alpha"},
     (-1.5331584317624851, 0.5608609189347509, 0.04212364648082183, -0.539559575130735)),
    ({**_CONDITIONAL_CELL, "n": 400, "parameter": "beta_y_0"},
     (1.507261625248955, 0.17066593433068583, 0.024037076083003234, 0.05914901615695624)),
]
# SMALL's coverage rows, frozen from the same pass, with the score
# covariance of inference.score_covariance_matrix behind the widths:
# (cell, (oracle, coverage, naive_coverage, width))
FROZEN_COVERAGE = [
    ({**_CELL, "n": 80, "parameter": "beta_y_0"}, (-0.003387732176928584, 1.0, 1.0, 0.5722125687794373)),
    ({**_CELL, "n": 80, "parameter": "alpha"}, (-0.2993984167038489, 1.0, 1.0, 0.19940276380893596)),
    ({**_CELL, "n": 400, "parameter": "beta_y_0"}, (-0.003387732176928584, 1.0, 1.0, 0.2900243603284268)),
    ({**_CELL, "n": 400, "parameter": "alpha"}, (-0.2993984167038489, 1.0, 1.0, 0.07173535735780456)),
]


def same_rows(a, b) -> bool:
    """Row lists equal value for value, arrays compared by their bytes."""
    def key(value):
        return value.tobytes() if isinstance(value, np.ndarray) else value
    return [{k: key(v) for k, v in r.items()} for r in a] == [{k: key(v) for k, v in r.items()} for r in b]


class TestDgpSampling:
    def test_square_support_and_mean(self):
        data = dgp_sample(DgpSpec(id=1, n=40_000, seed=1))
        assert np.all(np.abs(data.y) <= 0.5)
        assert np.max(np.abs(data.y.mean(axis=0))) < 4.0 / np.sqrt(40_000)

    def test_triangle_support(self):
        data = dgp_sample(DgpSpec(id=2, n=20_000, seed=2))
        y = data.y
        assert np.all(y[:, 1] >= -1.0 / (2.0 * np.sqrt(3.0)) - 1e-12)
        assert np.all(y[:, 1] <= 1.0 / np.sqrt(3.0) + 1e-12)
        assert np.max(np.abs(y.mean(axis=0))) < 0.01  # centroid at the origin

    def test_normal_covariance(self):
        data = dgp_sample(DgpSpec(id=3, n=100_000, seed=3))
        cov = np.cov(data.y.T)
        assert np.allclose(cov, [[1.0, 1.5], [1.5, 9.0]], atol=0.12)

    def test_regression_unconditional_moments(self):
        data = dgp_sample(DgpSpec(id=4, n=100_000, seed=4))
        assert data.p == 1
        cov = np.cov(data.y.T)
        assert cov[1, 1] == pytest.approx(17.0, rel=0.05)
        assert cov[0, 1] == pytest.approx(1.5, rel=0.1)
        assert np.var(data.x[:, 0]) == pytest.approx(4.0, rel=0.05)

    def test_regression_sample_keeps_no_view_of_its_draw(self):
        # x and y are copies, so the (n, 3) normal draw is freed
        data = dgp_sample(DgpSpec(id=4, n=1000, seed=4))
        assert data.x.base is None and data.y.base is None

    def test_conditional_variant_law(self):
        data = dgp4_conditional_sample(200_000, seed=5)
        x = data.x[:, 0]
        sel = np.abs(x - 1.0) < 0.05
        cond = data.y[sel]
        assert cond[:, 1].mean() == pytest.approx(0.5, abs=0.1)
        assert cond[:, 0].mean() == pytest.approx(0.0, abs=0.05)
        assert np.cov(cond.T)[1, 1] == pytest.approx(8.0, rel=0.15)

    def test_deterministic(self):
        a = dgp_sample(DgpSpec(id=2, n=100, seed=9))
        b = dgp_sample(DgpSpec(id=2, n=100, seed=9))
        assert a.y.tobytes() == b.y.tobytes()

    def test_bad_id(self):
        with pytest.raises(DomainError):
            DgpSpec(id=7, n=10)


class TestOracles:
    def test_square_vertical_closed_form(self):
        # cut of the uniform square: alpha = -(0.5 - tau), beta = 0
        theta = population_params_oracle(1, Direction(u=U01, tau=0.2), mc_size=400_000, seed=1)
        assert theta.alpha == pytest.approx(-0.30, abs=0.01)
        assert abs(theta.beta_y[0]) < 0.02

    def test_square_diagonal_closed_form(self):
        # corner-cut geometry: alpha = (sqrt(0.4) - 1)/sqrt(2)
        theta = population_params_oracle(1, Direction(u=U45, tau=0.2), mc_size=400_000, seed=2)
        assert theta.alpha == pytest.approx((np.sqrt(0.4) - 1.0) / np.sqrt(2.0), abs=0.01)

    def test_normal_dgp_closed_form(self):
        # regression of y2 on y1 under the correlated normal: slope 1.5,
        # intercept at the tau quantile of the residual distribution
        theta = population_params_oracle(3, Direction(u=U01, tau=0.2), mc_size=400_000, seed=3)
        assert theta.beta_y[0] == pytest.approx(1.5, abs=0.03)
        resid_sd = np.sqrt(9.0 - 1.5**2)
        assert theta.alpha == pytest.approx(-normal_quantile(0.8) * resid_sd, abs=0.03)

    def test_conditional_oracle_closed_form(self):
        d = Direction(u=U01, tau=0.2)
        alpha, beta = conditional_params_oracle(1.0, d, mc_size=400_000, seed=4)
        resid_sd = np.sqrt(8.0 - 1.5**2)
        assert beta == pytest.approx(1.5, abs=0.03)
        assert alpha == pytest.approx(0.5 - normal_quantile(0.8) * resid_sd, abs=0.03)

    def test_oracle_stability_between_runs(self):
        d = Direction(u=U45, tau=0.2)
        a = population_params_oracle(2, d, mc_size=1_000_000, seed=10)
        b = population_params_oracle(2, d, mc_size=1_000_000, seed=20)
        assert abs(a.alpha - b.alpha) < 0.01
        assert abs(a.beta_y[0] - b.beta_y[0]) < 0.01

    def test_small_mc_rejected(self):
        with pytest.raises(DomainError):
            population_params_oracle(1, Direction(u=U01, tau=0.2), mc_size=10)

    def test_study_oracles_share_one_sample_per_dgp(self, monkeypatch):
        # two DGPs x two directions x two taus: each DGP's Monte Carlo sample
        # is drawn once, and every table oracle is population_params_oracle's
        cfg = ExperimentConfig(dgps=(1, 4), taus=(0.2, 0.4), sample_sizes=(60,), replications=1,
                               n_draws=60, burn_in=10, master_seed=3, oracle_mc_size=100_000)
        draws = []
        real = simlab.dgp_sample

        def recorded(spec):
            draws.append((spec.id, spec.n))
            return real(spec)

        monkeypatch.setattr(simlab, "dgp_sample", recorded)
        tables = simulation_tables(cfg)
        assert [d for d in draws if d[1] == cfg.oracle_mc_size] == [(1, 100_000), (4, 100_000)]
        for dgp, u, tau, n in cfg.cells():
            direction = Direction(u=np.asarray(u), tau=tau)
            basis = orthonormal_complement(direction.u, convention=cfg.basis_convention)
            truth = population_params_oracle(dgp, direction, mc_size=cfg.oracle_mc_size,
                                             basis=basis).as_vector()
            rows = [r for r in tables["rmse"] if (r["dgp"], r["u"], r["tau"]) == (dgp, u, tau)]
            assert np.array([r["oracle"] for r in rows]).tobytes() == truth.tobytes()


    def test_conditional_oracles_share_one_sample_per_study(self, monkeypatch):
        # two directions x two taus: the conditional Monte Carlo sample is
        # drawn once, and every table oracle is conditional_params_oracle's
        cfg = ExperimentConfig(taus=(0.2, 0.4), sample_sizes=(60,), replications=1,
                               n_draws=60, burn_in=10, master_seed=3, oracle_mc_size=100_000)
        draws = []
        real = simlab._conditional_oracle_sample

        def recorded(x0, mc_size, *args):
            draws.append((x0, mc_size))
            return real(x0, mc_size, *args)

        monkeypatch.setattr(simlab, "_conditional_oracle_sample", recorded)
        rows = simulation_tables(cfg, tables={"conditional"})["conditional"]
        assert draws == [(cfg.x0, 100_000)]
        assert len(rows) == 2 * len(cfg.directions) * len(cfg.taus)
        for u in cfg.directions:
            for tau in cfg.taus:
                direction = Direction(u=np.asarray(u), tau=tau)
                basis = orthonormal_complement(direction.u, convention=cfg.basis_convention)
                truth = np.array(conditional_params_oracle(cfg.x0, direction,
                                                           mc_size=cfg.oracle_mc_size, basis=basis))
                oracle = [r["oracle"] for r in rows if (r["u"], r["tau"]) == (tuple(u), tau)]
                assert np.array(oracle).tobytes() == truth.tobytes()


class TestExperiments:
    def test_rmse_rows_and_monotonicity(self):
        rows = simulation_tables(SMALL)["rmse"]
        assert len(rows) == 4  # 1 dgp x 1 direction x 2 params x 2 sizes
        by_param = {}
        for r in rows:
            assert r["failed"] == 0 and r["replications"] == 4
            assert 0.0 < r["rmse_se"] < r["rmse"]
            by_param.setdefault(r["parameter"], {})[r["n"]] = r["rmse"]
        for param, vals in by_param.items():
            assert vals[400] < vals[80]

    def test_rmse_se_tracks_spread_between_studies(self):
        rng = np.random.default_rng(3)
        studies = [_rmse_and_se(e**2) for e in rng.normal(0.3, 1.0, size=(4000, 25))]
        rmse, se = np.array(studies).T
        # the delta method runs about 6% low at 25 replications
        assert np.mean(se) == pytest.approx(np.std(rmse), rel=0.1)
        assert np.isnan(_rmse_and_se(np.array([0.5]))[1])

    def test_bit_reproducible(self):
        a = simulation_tables(SMALL)["rmse"]
        b = simulation_tables(SMALL)["rmse"]
        assert a == b

    def test_cli_import_leaves_out_the_pool_modules(self):
        # only a study with workers > 1 needs them; a fresh interpreter shows
        # what importing the CLI loads
        code = ("import sys, dirquant.cli; "
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_workers_match_serial(self):
        a = simulation_tables(SMALL, tables=UNCONDITIONAL)
        b = simulation_tables(SMALL, workers=2, tables=UNCONDITIONAL)
        assert set(a) == set(b) == {"rmse", "subgradient", "coverage", "replications", "failures"}
        for name in a:
            assert same_rows(a[name], b[name]), name
        small = replace(SMALL, sample_sizes=(80,), replications=3)
        assert (simulation_tables(small, tables={"conditional"})
                == simulation_tables(small, workers=2, tables={"conditional"}))

    def test_conditional_matches_the_separate_driver(self):
        # the conditional rows against their frozen values
        tables = simulation_tables(replace(SMALL, replications=16))
        assert set(tables) == {*TABLES, "replications", "failures"}
        rows = tables["conditional"]
        assert len(rows) == len(FROZEN_CONDITIONAL)
        for row, (cell, value) in zip(rows, FROZEN_CONDITIONAL):
            assert {k: row[k] for k in cell} == cell
            assert (row["oracle"], row["rmse"], row["rmse_se"], row["bias"]) == value
            assert (row["replications"], row["failed"]) == (16, 0)

    def test_tables_are_checked(self):
        with pytest.raises(DomainError, match="tables"):
            simulation_tables(SMALL, tables={"rmse", "foo"})
        with pytest.raises(DomainError, match="tables"):
            simulation_tables(SMALL, tables=())
        with pytest.raises(DomainError, match="workers"):
            simulation_tables(SMALL, workers=0)

    def test_combined_tables_match_individual(self):
        # rmse and subgradient rows of SMALL against their frozen values
        tables = simulation_tables(SMALL)
        for rows, frozen in ((tables["rmse"], FROZEN_RMSE), (tables["subgradient"], FROZEN_SUBGRAD)):
            assert len(rows) == len(frozen)
            for row, (cell, value) in zip(rows, frozen):
                assert {k: row[k] for k in cell} == cell
                assert row["rmse"] == pytest.approx(value[0], rel=1e-9)
                if len(value) == 2:
                    assert row["bias"] == pytest.approx(value[1], rel=1e-9)
                assert (row["replications"], row["failed"]) == (4, 0)

    def test_replication_rows_rebuild_the_tables(self):
        tables = simulation_tables(SMALL)
        reps = tables["replications"]
        assert len(reps) == 8  # 2 sizes x 4 replications
        for row in tables["rmse"]:
            j = ("beta_y_0", "alpha").index(row["parameter"])
            est = np.array([r["estimate"][j] for r in reps if r["n"] == row["n"]])
            assert np.sqrt(np.mean((est - row["oracle"]) ** 2)) == pytest.approx(row["rmse"], rel=1e-12)
        for r in reps:
            assert np.all(r["mcse"] > 0)
            assert dgp_sample(DgpSpec(id=r["dgp"], n=r["n"], seed=r["data_seed"])).n == r["n"]
        assert len({r["data_seed"] for r in reps}) == len(reps)

    def test_coverage_matches_the_separate_pass(self):
        # the coverage rows against their frozen values
        rows = simulation_tables(SMALL)["coverage"]
        assert len(rows) == len(FROZEN_COVERAGE)
        for row, (cell, value) in zip(rows, FROZEN_COVERAGE):
            assert {k: row[k] for k in cell} == cell
            got = (row["oracle"], row["coverage"], row["naive_coverage"], row["width"])
            assert got == pytest.approx(value, rel=1e-12)
            assert (row["replications"], row["failed"]) == (4, 0)

    def test_coverage_rows(self):
        cfg = replace(SMALL, sample_sizes=(400,), replications=6)
        rows = simulation_tables(cfg)["coverage"]
        assert len(rows) == 2
        for r in rows:
            assert 0.0 <= r["coverage"] <= 1.0
            assert r["naive_coverage"] >= r["coverage"] - 1e-9
            assert r["width"] > 0

    def test_coverage_has_no_regression_cells(self):
        tables = simulation_tables(replace(SMALL, dgps=(1, 4), sample_sizes=(80,), replications=2))
        assert {r["dgp"] for r in tables["rmse"]} == {1, 4}
        assert {r["dgp"] for r in tables["coverage"]} == {1}

    def test_failure_reasons_are_kept(self, monkeypatch):
        cfg = replace(SMALL, replications=3)

        def failing(real, cell_index):
            doomed = simlab._rep_seed(cfg.master_seed, cell_index, 2, 1)  # replication 2's chain

            def run_chains(problems, *args):  # one engine call of chains sharing (n, d)
                if any(problem.seed == doomed for problem in problems):
                    raise RuntimeError("injected failure")
                return real(problems, *args)
            return run_chains

        monkeypatch.setattr(samplers, "_run_chains", failing(samplers._run_chains, 1))
        tables = simulation_tables(cfg)
        assert tables["failures"] == [
            {**_CELL, "n": 400, "rep": 2, "error": "RuntimeError('injected failure')"}
        ]
        for name in ("rmse", "subgradient", "coverage"):
            for row in tables[name]:
                assert (row["replications"], row["failed"]) == ((2, 1) if row["n"] == 400 else (3, 0))
        assert len(tables["replications"]) == 5

        # conditional cells are numbered from 10_000
        monkeypatch.setattr(samplers, "_run_chains", failing(samplers._run_chains, 10_000))
        cond = simulation_tables(replace(cfg, sample_sizes=(80,)), tables={"conditional"})
        assert cond["failures"] == [{
            "u": (0.0, 1.0), "tau": 0.2, "n": 80, "x0": 1.0, "rep": 2,
            "error": "RuntimeError('injected failure')",
        }]
        assert [(r["replications"], r["failed"]) for r in cond["conditional"]] == [(2, 1), (2, 1)]

    def test_cell_with_every_replication_failed_is_kept(self, monkeypatch):
        cfg = replace(SMALL, sample_sizes=(80,), replications=2)

        def failing(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(samplers, "_run_chains", failing)
        tables = simulation_tables(cfg, tables=UNCONDITIONAL)
        error = "RuntimeError('injected failure')"
        assert tables["failures"] == [{**_CELL, "n": 80, "rep": rep, "error": error} for rep in (0, 1)]
        assert tables["replications"] == []
        stats = {"rmse": ("rmse", "rmse_se", "bias"), "subgradient": ("rmse", "rmse_se"),
                 "coverage": ("coverage", "naive_coverage", "width")}
        for name, keys in stats.items():
            assert len(tables[name]) == 2  # two parameters, or two subgradient statistics
            for row in tables[name]:
                assert (row["replications"], row["failed"]) == (0, 2)
                assert all(np.isnan(row[key]) for key in keys)

        monkeypatch.setattr(samplers, "_run_chains", failing)
        cond = simulation_tables(cfg, tables={"conditional"})
        assert [(r["rep"], r["error"]) for r in cond["failures"]] == [(0, error), (1, error)]
        for row in cond["conditional"]:
            assert (row["replications"], row["failed"]) == (0, 2)
            assert all(np.isnan(row[key]) for key in ("rmse", "rmse_se", "bias"))

    @staticmethod
    def _nan_response(problem):
        problem.y[0] = np.nan  # the chain runs on, its draws turn NaN

    @staticmethod
    def _negative_prior_precision(problem):
        problem.prior.covariance[:] = -1e-12 * np.eye(problem.prior.dim)

    @pytest.mark.parametrize("poison, error", [
        ("_nan_response", "NumericalError('chain contains non-finite draws')"),
        # run alone, the poisoned chain is block 0 and fails at its first sweep
        ("_negative_prior_precision",
         "NumericalError('conditional precision not positive definite in block 0 (sweep 0)"),
    ])
    def test_failed_chain_leaves_its_siblings_alone(self, monkeypatch, poison, error):
        cfg = replace(SMALL, replications=3)
        clean = simulation_tables(cfg)
        real = simlab._unconditional_problem
        doomed = simlab._rep_seed(cfg.master_seed, 1, 1, 1)  # n = 400, replication 1's chain

        def poisoned(*args, seed, **kwargs):
            problem = real(*args, seed=seed, **kwargs)
            if seed == doomed:
                getattr(self, poison)(problem)
            return problem

        # the engine call of the three n = 400 chains fails as a whole, and
        # each of them is rerun alone
        monkeypatch.setattr(simlab, "_unconditional_problem", poisoned)
        tables = simulation_tables(cfg)
        [failure] = tables["failures"]
        assert {k: failure[k] for k in ("n", "rep")} == {"n": 400, "rep": 1}
        assert failure["error"].startswith(error)
        by_seed = {r["data_seed"]: r for r in clean["replications"]}
        assert len(tables["replications"]) == 5
        for row in tables["replications"]:
            assert row["estimate"].tobytes() == by_seed[row["data_seed"]]["estimate"].tobytes()
            assert row["mcse"].tobytes() == by_seed[row["data_seed"]]["mcse"].tobytes()

    def test_master_seed_changes_results(self):
        a = simulation_tables(SMALL)["rmse"]
        b = simulation_tables(replace(SMALL, master_seed=12))["rmse"]
        assert a != b


class TestStarFixture:
    def test_columns_and_discreteness(self):
        cols = make_star_like(500, seed=1)
        assert set(cols) == {"math", "read", "small_class", "experience"}
        assert np.all(cols["math"] == np.rint(cols["math"]))
        assert len(np.unique(cols["math"])) < 500  # ties exist pre-jitter
        assert np.all((cols["small_class"] == 0) | (cols["small_class"] == 1))

    def test_experience_improves_scores(self):
        cols = make_star_like(20_000, seed=2)
        young = cols["experience"] <= 3
        seasoned = cols["experience"] >= 20
        assert cols["math"][seasoned].mean() > cols["math"][young].mean() + 3.0


class TestBatchedChains:
    """Chains stacked into engine calls by (n, d) against one chain per run."""

    CFG = ExperimentConfig(
        dgps=(1, 4),
        taus=(0.2,),
        sample_sizes=(60, 120),
        replications=3,
        n_draws=120,
        burn_in=20,
        master_seed=5,
        oracle_mc_size=100_000,
    )

    def test_conditional_replication_projects_once(self, projections):
        problem, _ = simlab._prepare_conditional((tuple(U45), 0.2, 150, 1.0, "positive", 3, 4))
        data = dgp4_conditional_sample(150, seed=3)
        assert [d.u.tobytes() for d in projections] == [U45.tobytes()]
        assert problem.y.tobytes() == (data.y @ U45).tobytes()

    def test_tables_match_per_replication_chains(self, monkeypatch):
        cfg = self.CFG
        # 250 rows per call: chunks of 4 chains at n = 60 and 2 at n = 120,
        # so every (n, d) group is split and one chunk mixes d = 2 and 3
        monkeypatch.setattr(samplers, "_ROW_BUDGET", 250)
        calls = []
        real = samplers._run_chains

        def counted(problems, *args):
            calls.append((len(problems), *problems[0].design.shape))
            return real(problems, *args)

        monkeypatch.setattr(samplers, "_run_chains", counted)
        tables = simulation_tables(cfg)
        cond = tables["conditional"]
        assert all(b * n <= 250 for b, n, _ in calls) and max(b for b, _, _ in calls) > 1
        assert len(calls) > 4  # more calls than the four (n, d) groups of the study

        seed = simlab._rep_seed
        assert tables["failures"] == [] and len(tables["replications"]) == 24
        for i, (dgp, u, tau, n) in enumerate(cfg.cells()):
            direction = Direction(u=np.asarray(u), tau=tau)
            basis = orthonormal_complement(direction.u, convention=cfg.basis_convention)
            rows = [r for r in tables["replications"] if (r["dgp"], r["u"], r["n"]) == (dgp, u, n)]
            assert [r["data_seed"] for r in rows] == [seed(cfg.master_seed, i, rep, 0) for rep in range(3)]
            for rep, row in enumerate(rows):
                data = dgp_sample(DgpSpec(id=dgp, n=n, seed=row["data_seed"]))
                d = data.k + data.p
                chain = gibbs_unconditional(
                    data, direction, PriorSpec(mean=np.zeros(d), covariance=1000.0 * np.eye(d)),
                    n_draws=cfg.n_draws, burn_in=cfg.burn_in,
                    seed=seed(cfg.master_seed, i, rep, 1), basis=basis,
                )
                assert posterior_vector(chain).tobytes() == row["estimate"].tobytes()
                assert posterior_mcse(chain).tobytes() == row["mcse"].tobytes()

        keys = [(u, tau, n) for u in cfg.directions for tau in cfg.taus for n in cfg.sample_sizes]
        assert len(cond) == 2 * len(keys)
        for i, (u, tau, n) in enumerate(keys):
            direction = Direction(u=np.asarray(u), tau=tau)
            basis = orthonormal_complement(direction.u, convention=cfg.basis_convention)
            estimates = []
            for rep in range(cfg.replications):
                data = dgp4_conditional_sample(n, seed=seed(cfg.master_seed, 10_000 + i, rep, 0))
                design = make_conditional_design(
                    project(data, direction, basis), data.x, np.array([cfg.x0]), "local-constant"
                )
                chain = gibbs_conditional(
                    data, direction, design, KernelSpec(bandwidth=default_bandwidth(data.x)),
                    PriorSpec(mean=np.zeros(2), covariance=1000.0 * np.eye(2)),
                    n_draws=cfg.n_draws, burn_in=cfg.burn_in,
                    seed=seed(cfg.master_seed, 10_000 + i, rep, 1),
                )
                estimates.append(posterior_vector(chain))
            rows = cond[2 * i:2 * i + 2]
            assert [(r["u"], r["n"], r["parameter"]) for r in rows] == [
                (tuple(u), n, "alpha"), (tuple(u), n, "beta_y_0")
            ]
            err = np.array(estimates) - np.array([r["oracle"] for r in rows])
            rmse, rmse_se = _rmse_and_se(err**2)
            for j, r in enumerate(rows):
                assert (r["rmse"], r["rmse_se"], r["bias"]) == (
                    float(rmse[j]), float(rmse_se[j]), float(np.mean(err[:, j]))
                )

        # the same chunks through a two-worker pool
        pooled = simulation_tables(cfg, workers=2)
        for name in tables:
            assert same_rows(tables[name], pooled[name]), name

    def test_conditional_chains_share_calls_with_location_chains(self, monkeypatch):
        # one call per (n, d): the conditional chains of an n (d = 2) are
        # stacked with the DGP 1 chains of that n, and DGP 4 (d = 3) runs apart
        cfg = replace(self.CFG, directions=((0.0, 1.0),), replications=2)
        calls = []
        real = samplers._run_chains

        def counted(problems, *args):
            calls.append((problems[0].design.shape, sorted(q.sampler for q in problems)))
            return real(problems, *args)

        monkeypatch.setattr(samplers, "_run_chains", counted)
        simulation_tables(cfg)
        both = ["gibbs-conditional"] * 2 + ["gibbs-unconditional"] * 2
        assert calls == [((60, 2), both), ((60, 3), ["gibbs-unconditional"] * 2),
                         ((120, 2), both), ((120, 3), ["gibbs-unconditional"] * 2)]

    def test_coverage_alone_draws_no_regression_dataset(self, monkeypatch):
        draws = []
        real = simlab.dgp_sample

        def recorded(spec):
            draws.append(spec.id)
            return real(spec)

        monkeypatch.setattr(simlab, "dgp_sample", recorded)
        alone = simulation_tables(self.CFG, tables={"coverage"})
        assert set(alone) == {"coverage", "replications", "failures"}
        assert draws and set(draws) == {1}  # neither a replication nor the oracle sample
        draws.clear()
        full = simulation_tables(self.CFG)
        assert set(draws) == {1, 4}
        assert alone["coverage"] == full["coverage"]

    def test_chunks_respect_the_row_budget_and_the_workers(self, monkeypatch):
        monkeypatch.setattr(samplers, "_ROW_BUDGET", 1000)
        sizes = [100] * 25 + [1000] * 3 + [100] * 2 + [5000]
        chunks = samplers._chunks(sizes)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(len(sizes)))
        assert [len(c) for c in chunks] == [10, 10, 7, 1, 1, 1, 1]
        assert chunks[2] == [20, 21, 22, 23, 24, 28, 29]  # n = 100 across the gap, in order
        assert [len(c) for c in samplers._chunks([100] * 9, workers=2)] == [5, 4]
        assert [len(c) for c in samplers._chunks([100] * 30, workers=2)] == [10, 10, 10]
