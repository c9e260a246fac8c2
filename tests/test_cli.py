import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import dirquant
from dirquant import cli, samplers, simlab
from dirquant.cli import ingest_csv, main, parse_config_text
from dirquant.ald import HyperplaneParams
from dirquant.errors import ConfigError, DataError
from dirquant.geometry import Direction
from dirquant.inference import score_covariance_matrix
from dirquant.io import provenance_block, read_chain, write_chain, write_json
from dirquant.samplers import Chain


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dirquant.cli", *args], capture_output=True, text=True
    )


@pytest.fixture
def tiny_desk(monkeypatch):
    """A desk profile small enough for in-process simulate runs; the command
    reads ``simlab.DESK_PROFILE`` when it runs."""
    monkeypatch.setattr(simlab, "DESK_PROFILE", replace(
        simlab.DESK_PROFILE, dgps=(1, 4), directions=((0.0, 1.0),), sample_sizes=(60,),
        replications=2, n_draws=100, burn_in=20, oracle_mc_size=100_000,
    ))


@pytest.fixture
def score_csv(tmp_path):
    path = tmp_path / "scores.csv"
    rng = np.random.default_rng(0)
    base = rng.multivariate_normal([520.0, 515.0], [[900.0, 540.0], [540.0, 810.0]], size=500)
    exp = rng.integers(0, 26, size=500)
    with open(path, "w") as f:
        f.write("math,read,experience\n")
        for i in range(500):
            f.write(f"{base[i,0]:.0f},{base[i,1]:.0f},{exp[i]}\n")
    return str(path)


class TestConfigParser:
    def test_basic_grammar(self):
        cfg = parse_config_text("a = 1\n# comment\nlist = x, y ,z\nempty_ok =\n")
        assert cfg["a"] == "1"
        assert cfg["list"] == "x, y ,z"

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nbroken line\n")


class TestIngest:
    def test_exact_readback(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,c\n1,2.5,9\n-3,4,8\n0.25,0,7\n")
        data, report = ingest_csv(str(path), ["a", "b"], ["c"])
        assert np.array_equal(data.y, [[1.0, 2.5], [-3.0, 4.0], [0.25, 0.0]])
        assert np.array_equal(data.x, [[9.0], [8.0], [7.0]])
        assert report == {"rows_in": 3, "rows_used": 3, "rows_dropped": 0}

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("a,b\n1,2\n,3\n4,NA\n5,6\n")
        data, report = ingest_csv(str(path), ["a", "b"])
        assert data.n == 2
        assert report["rows_dropped"] == 2
        assert report["rows_used"] == report["rows_in"] - report["rows_dropped"]

    def test_jitter_breaks_ties(self, tmp_path):
        path = tmp_path / "ties.csv"
        rows = "\n".join(f"{v},{v}" for v in [5, 5, 5, 7, 7, 9] * 20)
        path.write_text("a,b\n" + rows + "\n")
        data, _ = ingest_csv(str(path), ["a", "b"], jitter=True, seed=1)
        assert len(np.unique(data.y[:, 0])) == data.n
        data2, _ = ingest_csv(str(path), ["a", "b"], jitter=True, seed=1)
        assert data.y.tobytes() == data2.y.tobytes()  # seeded jitter reproducible
        plain, _ = ingest_csv(str(path), ["a", "b"])
        assert np.all(data.y >= plain.y) and np.all(data.y < plain.y + 1.0)

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(str(path), ["a", "b"])

    def test_non_numeric_reported(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("a,b\n1,2\nx,4\n")
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(str(path), ["a", "b"])

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="no column"):
            ingest_csv(str(path), ["a", "nope"])


def _ingest_both(path, responses, covariates=(), **kw):
    """ingest_csv's result from the C reader and from the per-row parser."""
    fast = ingest_csv(str(path), responses, covariates, **kw)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_numeric_grid", lambda _path: None)
        slow = ingest_csv(str(path), responses, covariates, **kw)
    return fast, slow


def _dataset_bytes(data):
    return (data.y.tobytes(), data.y.strides, data.x.tobytes(), data.x.strides, data.x.shape)


class TestIngestReaders:
    """The C reader against the per-row parser: the same bytes for a clean
    file, and every other file handed over with today's results."""

    CLEAN = {
        "ints": "a,b,c\n1,2,3\n4,5,6\n-7,8,-9\n",
        "decimals": "a,b,c\n1.5,-2.25,0.125\n.5,5.,-0.0\n",
        "exponents": "a,b,c\n1e5,-2.5E-3,3e+2\n4E0,1e-300,6.02e23\n",
        "spaces": "a , b,c \n 1.5 , 2 ,3\n4,\t5 ,6\n",
        "crlf": "a,b,c\r\n1,2,3\r\n4,5,6\r\n",
        "trailing_blank_lines": "a,b,c\n1,2,3\n4,5,6\n\n\n",
        "unrequested_numeric": "a,b,c,d\n1,2,3,10\n4,5,6,11\n",
    }

    @pytest.mark.parametrize("name", sorted(CLEAN))
    @pytest.mark.parametrize("covariates", [(), ("c",)])
    def test_clean_file_same_bytes(self, tmp_path, name, covariates):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(self.CLEAN[name].encode())
        assert cli._numeric_grid(str(path)) is not None
        (fast, fast_report), (slow, slow_report) = _ingest_both(path, ["a", "b"], covariates)
        assert _dataset_bytes(fast) == _dataset_bytes(slow)
        assert fast_report == slow_report

    def test_star_scores_with_jitter(self, tmp_path):
        cols = simlab.make_star_like(10_000, seed=5)
        names = ["math", "read", "small_class", "experience"]
        lines = [",".join(names)] + [",".join(f"{cols[c][i]:.0f}" for c in names) for i in range(10_000)]
        path = tmp_path / "star.csv"
        path.write_text("\n".join(lines) + "\n")
        assert cli._numeric_grid(str(path)) is not None
        (fast, fast_report), (slow, slow_report) = _ingest_both(
            path, ["math", "read"], ["experience"], jitter=True, seed=9)
        assert _dataset_bytes(fast) == _dataset_bytes(slow)
        assert fast_report == slow_report == {"rows_in": 10_000, "rows_used": 10_000, "rows_dropped": 0}

    @pytest.mark.parametrize("cell", ['""', "", "NA", "nan", "null"])
    def test_missing_cells_dropped_and_counted(self, tmp_path, cell):
        path = tmp_path / "missing.csv"
        path.write_text(f"a,b\n1,2\n{cell},3\n4,5\n")
        assert cli._numeric_grid(str(path)) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data, report = ingest_csv(str(path), ["a", "b"])
        assert np.array_equal(data.y, [[1.0, 2.0], [4.0, 5.0]])
        assert report == {"rows_in": 3, "rows_used": 2, "rows_dropped": 1}

    def test_unrequested_text_column(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("a,b,name\n1,2,x\n4,5,y\n")
        assert cli._numeric_grid(str(path)) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data, report = ingest_csv(str(path), ["a", "b"])
        assert np.array_equal(data.y, [[1.0, 2.0], [4.0, 5.0]])
        assert report == {"rows_in": 2, "rows_used": 2, "rows_dropped": 0}

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
        ("a,b\n1,2\nx,4\n", "line 3: non-numeric value 'x'"),
        ("a,b\n", "no complete rows after dropping missing values"),
        ("a,b\n1,2#3\n4,5\n", "line 2: non-numeric value '2#3'"),
    ])
    def test_faults_keep_their_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli._numeric_grid(str(path)) is None
            with pytest.raises(DataError) as info:
                ingest_csv(str(path), ["a", "b"])
        assert str(info.value) == f"{path}: {message}"


class TestArtifactMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_artifact_mode_is_a_plain_files_mode(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_json(str(tmp_path / "artifact.json"), {"a": 1})
            with open(tmp_path / "plain.json", "w"):
                pass
        finally:
            os.umask(old)
        mode = os.stat(tmp_path / "artifact.json").st_mode
        assert mode == os.stat(tmp_path / "plain.json").st_mode
        assert mode & 0o777 == 0o666 & ~umask


class TestChainRoundTrip:
    def test_csv_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        chain = Chain(
            draws=rng.normal(size=(40, 2)), burn_in=10, seed=77,
            sampler="gibbs-unconditional", names=("beta_y_0", "alpha"), layout=(2, 0),
        )
        cpath, jpath = str(tmp_path / "c.csv"), str(tmp_path / "c.json")
        write_chain(chain, cpath, jpath)
        back = read_chain(cpath, jpath)
        assert back.draws.tobytes() == chain.draws.tobytes()  # exact round trip
        assert back.names == chain.names
        assert back.layout == chain.layout
        assert back.seed == 77 and back.burn_in == 10


class TestProvenance:
    def test_version_is_the_package_version(self):
        assert provenance_block({"a": 1}, 7)["version"] == dirquant.__version__

    def test_pyproject_reads_the_package_version(self):
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # setuptools marks [tool.setuptools] as beta
            config = pyprojecttoml.read_configuration(path)
        assert config["project"]["version"] == dirquant.__version__


def test_readme_key_table_is_the_cli_key_table():
    # README's "Config keys by command" names each key a command reads, and
    # the CLI refuses every other; value lists in parentheses are not keys
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as handle:
        lines = handle.read().split("Config keys by command", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))[2:]
    table = {command: set() for command in cli._KEYS}
    for row in rows:
        commands, keys = (cell.strip() for cell in row.strip("|").split("|"))
        for command in table if commands == "every command" else commands.split(", "):
            table[command] |= set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys)))
    assert table == {command: set(keys) for command, keys in cli._KEYS.items()}


class TestCommands:
    def test_fit_outputs_and_determinism(self, score_csv, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(
            f"input = {score_csv}\nresponse = math, read\ndirection = 1, 1\n"
            "tau = 0.2\ndraws = 300\nburn_in = 60\njitter = true\nseed = 9\n"
        )
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert run_cli("fit", "--config", str(cfg), "--out", out1).returncode == 0
        assert run_cli("fit", "--config", str(cfg), "--out", out2).returncode == 0
        chain1 = open(os.path.join(out1, "chain.csv")).read()
        chain2 = open(os.path.join(out2, "chain.csv")).read()
        assert chain1 == chain2  # byte-identical artifacts under one seed
        summary = json.load(open(os.path.join(out1, "fit.json")))
        assert set(summary["posterior_mean"]) == {"beta_y_0", "alpha"}
        assert summary["ci"] is not None
        assert summary["subgradient"]["n"] == 500
        assert summary["provenance"]["version"]
        assert summary["provenance"]["config_hash"]

    def test_contour_nested_polygons(self, score_csv, tmp_path):
        cfg = tmp_path / "contour.cfg"
        cfg.write_text(
            f"input = {score_csv}\nresponse = math, read\ntau = 0.05, 0.2, 0.4\n"
            "estimator = frequentist\ndirections = 16\njitter = true\n"
        )
        out = str(tmp_path / "oc")
        res = run_cli("contour", "--config", str(cfg), "--out", out)
        assert res.returncode == 0
        polys = {}
        for tau, tag in ((0.05, "0p05"), (0.2, "0p2"), (0.4, "0p4")):
            payload = json.load(open(os.path.join(out, f"contour_tau{tag}.json")))
            ring = np.array(payload["geometry"]["coordinates"][0])
            assert np.allclose(ring[0], ring[-1])  # closed ring
            polys[tau] = ring[:-1]
        from dirquant.contours import ContourPolygon, polygon_contains

        outer = ContourPolygon(vertices=polys[0.05], tau=0.05, n_directions=16)
        mid = ContourPolygon(vertices=polys[0.2], tau=0.2, n_directions=16)
        for v in polys[0.2]:
            assert polygon_contains(outer, v, tol=1e-6)
        for v in polys[0.4]:
            assert polygon_contains(mid, v, tol=1e-6)

    @pytest.mark.parametrize("estimator", ["frequentist", "bayes-mean"])
    def test_contour_bad_tau_writes_no_polygon(self, score_csv, tmp_path, capsys, estimator):
        # every tau is checked before ingest, so a bad tau late in the list
        # is a config error and leaves no contour of the good ones behind
        out = tmp_path / "oc"
        argv = ["contour", "--set", f"input={score_csv}", "--set", "response=math,read",
                "--set", "tau=0.2,1.5", "--set", "directions=8", "--set", f"estimator={estimator}",
                "--set", "draws=60", "--set", "burn_in=10", "--out", str(out)]
        assert main(argv) == 2
        assert "config error: tau must lie in (0, 1), got '1.5'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["frequentist", "bayes-mean"])
    def test_overflowing_responses_are_a_data_error(self, tmp_path, capsys, estimator):
        # responses whose squares overflow: exit 3 naming the array, with
        # no numpy warning (raised as an error here)
        path = tmp_path / "huge.csv"
        y = np.random.default_rng(5).standard_normal((300, 2)) * 1e200
        path.write_text("a,b\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in y))
        argv = ["contour", "--set", f"input={path}", "--set", "response=a,b", "--set", "tau=0.2",
                "--set", "directions=8", "--set", f"estimator={estimator}", "--out", str(tmp_path / "oc")]
        if estimator == "bayes-mean":
            argv += ["--set", "draws=60", "--set", "burn_in=10"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "data error: design values are too large: their variance overflows\n"
        assert not list((tmp_path / "oc").glob("contour_*"))

    def test_empty_contour_says_why(self, tmp_path, capsys):
        # collinear responses: the tau-depth region is at most a segment, so
        # the polygon is empty; it is written as before and stderr says so
        path = tmp_path / "line.csv"
        a = np.random.default_rng(5).standard_normal(300)
        path.write_text("a,b\n" + "".join(f"{float(v)!r},{float(2.0 * v)!r}\n" for v in a))
        out = tmp_path / "oc"
        argv = ["contour", "--set", f"input={path}", "--set", "response=a,b", "--set", "tau=0.2",
                "--set", "estimator=frequentist", "--out", str(out)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err == ("contour: warning: the tau=0.2 region is empty: its 32 fitted halfplanes "
                       "share no region of positive area (the responses may lie on a line, "
                       "or no point may be that deep)\n")
        assert json.loads((out / "contour_tau0p2.json").read_text())["properties"]["empty"] is True

    def test_tube_checks_every_window_before_the_first_slice(self, score_csv, tmp_path, capsys):
        out = tmp_path / "ot"
        argv = ["tube", "--set", f"input={score_csv}", "--set", "response=math,read",
                "--set", "covariates=experience", "--set", "tau=0.2", "--set", "x0=10,1e9",
                "--set", "directions=8", "--set", "draws=60", "--set", "burn_in=10", "--out", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "numerical failure: all kernel weights underflowed at x0 = [1000000000.0]\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_contour_refuses_the_removed_simultaneous_key(self, score_csv, tmp_path, capsys, value):
        # a key that once selected a different chain stream must not be ignored
        argv = ["contour", "--set", f"input={score_csv}", "--set", "response=math,read",
                "--set", "tau=0.2", "--set", "directions=8", "--set", f"simultaneous={value}",
                "--out", str(tmp_path / "oc")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'simultaneous'" in err
        assert "contour reads no config key 'simultaneous'" in err
        assert not os.path.exists(tmp_path / "oc")

    def test_tube_slices_shift_with_covariate(self, score_csv, tmp_path):
        cfg = tmp_path / "tube.cfg"
        cfg.write_text(
            f"input = {score_csv}\nresponse = math, read\ncovariates = experience\n"
            "tau = 0.2\nx0 = 2, 20\ndirections = 8\ndraws = 250\nburn_in = 50\njitter = true\n"
        )
        out = str(tmp_path / "ot")
        res = run_cli("tube", "--config", str(cfg), "--out", out)
        assert res.returncode == 0
        assert os.path.exists(os.path.join(out, "tube_tau0p2_x2.csv"))
        assert os.path.exists(os.path.join(out, "tube_tau0p2_x20.json"))

    def test_ci_command(self, score_csv, tmp_path):
        cfg = tmp_path / "ci.cfg"
        cfg.write_text(
            f"input = {score_csv}\nresponse = math, read\ndirection = 0, 1\n"
            "tau = 0.2\ndraws = 300\nburn_in = 60\njitter = true\n"
        )
        out = str(tmp_path / "oci")
        res = run_cli("ci", "--config", str(cfg), "--out", out)
        assert res.returncode == 0
        payload = json.load(open(os.path.join(out, "ci.json")))
        lower, upper = np.array(payload["lower"]), np.array(payload["upper"])
        nlower, nupper = np.array(payload["naive_lower"]), np.array(payload["naive_upper"])
        est = np.array(payload["estimate"])
        assert np.all(lower < est) and np.all(est < upper)
        assert np.all(nlower < est) and np.all(est < nupper)
        assert np.all(np.array(payload["std_error"]) > 0)
        # the scores lie near 520, far from the origin; the score covariance
        # at the estimate stays positive semidefinite there
        data, _ = ingest_csv(score_csv, ["math", "read"], jitter=True, seed=0)
        direction = Direction(u=np.array([0.0, 1.0]), tau=0.2)
        theta = HyperplaneParams(alpha=est[1], beta_y=est[:1])
        eig = np.linalg.eigvalsh(score_covariance_matrix(data, direction, theta))
        assert eig.min() >= -1e-12 * eig.max()

    def test_elicit_command(self, tmp_path):
        out = str(tmp_path / "oe")
        res = run_cli("elicit", "--set", "tau=0.2", "--set", "family=uniform-ball", "--out", out)
        assert res.returncode == 0
        payload = json.load(open(os.path.join(out, "prior.json")))
        assert payload["family"] == "uniform-ball"
        assert payload["mean"][-1] == pytest.approx(-payload["radius"])

    @pytest.mark.parametrize("tau, radius", [
        ("0.05", "1.6448536269514715"), ("0.2", "0.8416212335729144"), ("0.4", "0.2533471031357998"),
    ])
    def test_elicit_standard_normal_radius(self, tmp_path, tau, radius):
        # the radius is NormalDist().inv_cdf(1 - tau), written with repr
        out = tmp_path / "oe"
        assert main(["elicit", "--set", f"tau={tau}", "--out", str(out)]) == 0
        assert repr(json.load(open(out / "prior.json"))["radius"]) == radius
        assert (out / "prior.cfg").read_text() == (
            f"prior_mean = 0.0, -{radius}\nprior_variance = 1000.0, 1000.0\n")

    def test_simulate_desk_profile_reduced(self, tmp_path, tiny_desk):
        assert main([
            "simulate", "--set", "profile=desk", "--set", "replications=2",
            "--set", "sample_sizes=80", "--set", "tables=rmse", "--out", str(tmp_path),
        ]) == 0
        table = (tmp_path / "rmse.csv").read_text().splitlines()
        assert table[0].startswith("dgp,")
        # one row per cell and parameter: beta_y_0 and alpha, plus beta_x_0
        # for the regression DGP 4; the override leaves one sample size
        config = simlab.DESK_PROFILE
        params = sum(3 if dgp == 4 else 2 for dgp in config.dgps)
        assert len(table) == 1 + params * len(config.directions) * len(config.taus)
        header = table[0].split(",")
        assert {row.split(",")[header.index("n")] for row in table[1:]} == {"80"}
        assert (tmp_path / "provenance.json").exists()

    def test_simulate_coverage_alone_matches_the_full_run(self, tmp_path, tiny_desk):
        full, alone = tmp_path / "full", tmp_path / "alone"
        assert main(["simulate", "--out", str(full)]) == 0
        assert main(["simulate", "--set", "tables=coverage", "--out", str(alone)]) == 0
        assert sorted(os.listdir(full)) == [
            "conditional.csv", "coverage.csv", "provenance.json", "rmse.csv", "subgradient.csv",
        ]
        assert sorted(os.listdir(alone)) == ["coverage.csv", "provenance.json"]
        assert (alone / "coverage.csv").read_bytes() == (full / "coverage.csv").read_bytes()

    def test_simulate_reports_failed_replications(self, tmp_path, tiny_desk, monkeypatch, capsys):
        real = samplers._run_chains
        doomed = simlab._rep_seed(simlab.DESK_PROFILE.master_seed, 0, 1, 1)  # cell 0, replication 1

        def run_chains(problems, *args):  # one engine call of chains sharing (n, d)
            if any(problem.seed == doomed for problem in problems):
                raise RuntimeError("injected failure")
            return real(problems, *args)

        monkeypatch.setattr(samplers, "_run_chains", run_chains)
        assert main(["simulate", "--set", "tables=rmse", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "simulate: dgp=1 u=(0.0, 1.0) tau=0.2 n=60 replication 1 failed: "
            "RuntimeError('injected failure')"
        ]
        rows = (tmp_path / "rmse.csv").read_text().splitlines()
        header = rows[0].split(",")
        counts = {(r.split(",")[0], r.split(",")[header.index("failed")]) for r in rows[1:]}
        assert counts == {("1", "1"), ("4", "0")}

    def test_exit_codes(self, tmp_path, score_csv):
        assert run_cli("fit", "--set", "tau=0.2").returncode == 2  # missing input
        missing = run_cli("fit", "--set", "input=/nonexistent.csv",
                          "--set", "response=a,b", "--set", "direction=0,1", "--set", "tau=0.2")
        assert missing.returncode == 3
        bad_tau = run_cli(
            "fit", "--set", f"input={score_csv}", "--set", "response=math,read",
            "--set", "direction=0,1", "--set", "tau=1.5",
        )
        assert bad_tau.returncode == 2  # a config value out of range

    @pytest.mark.parametrize("command, key, value", [
        ("fit", "draws", "abc"), ("fit", "burn_in", "1.5"), ("fit", "seed", "x"),
        ("fit", "seed", "-1"), ("fit", "tau", "abc"), ("fit", "level", "x"),
        ("fit", "jitter", "ture"), ("ci", "tau", "abc"), ("ci", "level", "x"),
        ("contour", "directions", "abc"), ("tube", "directions", "abc"),
        ("tube", "bandwidth", "wide"), ("elicit", "tau", "x"), ("elicit", "k", "two"),
        ("elicit", "p", "x"), ("elicit", "alpha_variance", "big"),
        ("elicit", "beta_variance", "x"), ("elicit", "radius", "x"),
        ("simulate", "replications", "abc"), ("simulate", "master_seed", "x"),
        ("simulate", "threads", "x"),
        # out of range: refused before ingest, so nothing is written
        ("contour", "estimator", "foo"), ("fit", "direction", "0,0"), ("fit", "tau", "1.5"),
        ("fit", "direction", "1,1,1"), ("ci", "direction", "1"), ("contour", "tau", "0.2,1.5"),
        ("tube", "design", "foo"), ("elicit", "family", "foo"), ("contour", "directions", "2"),
        ("ci", "level", "2"), ("fit", "level", "2"), ("ci", "response", "math,read,experience"),
        ("contour", "covariates", "experience"), ("tube", "tau", "0"), ("tube", "bandwidth", "-1"),
        ("elicit", "k", "1"), ("elicit", "alpha_variance", "0"), ("simulate", "profile", "foo"),
        ("fit", "burn_in", "-1"), ("contour", "burn_in", "-3"),
        ("elicit", "radius", None), ("elicit", "radius", "-1"),  # None: the key left out
        # a misspelled key, which the command does not read
        ("fit", "directon", "0,1"), ("ci", "levle", "0.9"), ("contour", "directons", "8"),
        ("tube", "bandwith", "2"), ("simulate", "replicatons", "2"), ("elicit", "familly", "uniform-ball"),
        # a key the chosen estimator or family does not read: the base's
        # draws and burn_in, and its radius
        ("contour", "estimator", "frequentist"), ("elicit", "family", "standard-normal"),
    ])
    def test_config_values_exit_2(self, score_csv, tmp_path, capsys, tiny_desk, command, key, value):
        # each command gets only the keys it reads, then one key changed
        data = {"input": score_csv, "response": "math,read", "tau": "0.2", "draws": "120", "burn_in": "20"}
        base = {
            "fit": {**data, "direction": "0,1"},
            "ci": {**data, "direction": "0,1"},
            "contour": {**data, "directions": "8"},
            "tube": {**data, "covariates": "experience", "x0": "10", "directions": "8"},
            "simulate": {},
            "elicit": {"tau": "0.2", "family": "custom-radius", "radius": "1"},
        }[command]
        base[key] = value
        base = {k: v for k, v in base.items() if v is not None}
        argv = [command, "--out", str(tmp_path / "out")]
        for k, v in base.items():
            argv += ["--set", f"{k}={v}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        if key not in cli._KEYS[command]:
            assert f"{command} reads no config key {key!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("settings", [
        ["--set", "tables=foo"], ["--set", "tables=rmse,foo"], ["--set", "tables="],
        ["--set", "threads=0"], ["--threads", "0"], ["--set", "replications=0"],
        ["--set", "sample_sizes=1.5"], ["--set", "sample_sizes=100,0"], ["--set", "sample_sizes="],
        # DGP 4's design [y_perp, x, 1] has 3 columns, so n must be at least 4
        ["--set", "sample_sizes=1", "--set", "replications=2", "--set", "tables=rmse"],
        ["--set", "sample_sizes=100,3"],
    ])
    def test_simulate_refuses_bad_input(self, tmp_path, tiny_desk, capsys, settings):
        out = tmp_path / "out"
        assert main(["simulate", *settings, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()  # refused before anything is written

    def test_main_callable_directly(self, tmp_path):
        assert main(["elicit", "--set", "tau=0.3", "--out", str(tmp_path / "x")]) == 0
