"""Command-line front end: fit, contour, tube, ci, simulate, elicit.

Runs are driven by a flat key = value config file (grammar in the README);
a few common settings can be overridden by flags.  Exit codes: 0 success,
2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import constants, io, simlab
from .contours import tau_contours, tube_slice
from .errors import ConfigError, DataError, DirquantError, NumericalError
from .geometry import Dataset, Direction
from .inference import asymptotic_ci, naive_ci, posterior_mean, subgradient_diagnostics
from .priors import spherical_prior
from .samplers import (KernelSpec, PriorSpec, _rng_from_seed, _window_weights, default_bandwidth,
                       gibbs_unconditional)

__all__ = ["main", "run", "parse_config_file", "ingest_csv"]


# ---------------------------------------------------------------------------
# config handling


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; '#' comments; comma-separated lists."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def parse_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            return parse_config_text(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _as_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _as_floats(value: str) -> list[float]:
    try:
        return [float(v) for v in _as_list(value)]
    except ValueError as exc:
        raise ConfigError(f"expected numeric list, got {value!r}") from exc


def _as_int(value: str, key: str, minimum: int | None = None) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {number}")
    return number


def _as_float(value: str, key: str, bounds: tuple | None = None) -> float:
    """``value`` as a float, inside the open interval ``bounds`` if given."""
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if bounds is not None and not bounds[0] < number < bounds[1]:
        raise ConfigError(f"{key} must lie in ({bounds[0]:g}, {bounds[1]:g}), got {value!r}")
    return number


def _choice(value: str, key: str, options) -> str:
    if value not in options:
        raise ConfigError(f"{key} must be one of {', '.join(options)}, got {value!r}")
    return value


# open intervals of tau and level, and of the prior variances and bandwidth
_UNIT = (0.0, 1.0)
_POSITIVE = (0.0, math.inf)


# the config keys each command reads (README, "Config keys by command");
# ``run`` refuses any other
_DATA_KEYS = ("input", "response", "covariates", "jitter", "seed")
_FIT_KEYS = (*_DATA_KEYS, "direction", "tau", "draws", "burn_in", "prior_mean", "prior_variance", "level")
_KEYS = {command: frozenset(("output_dir", *keys)) for command, keys in {
    "fit": _FIT_KEYS,
    "ci": _FIT_KEYS,
    "contour": (*_DATA_KEYS, "tau", "directions", "estimator", "draws", "burn_in"),
    "tube": (*_DATA_KEYS, "tau", "x0", "directions", "design", "bandwidth", "draws", "burn_in"),
    "simulate": ("profile", "replications", "sample_sizes", "master_seed", "tables", "threads"),
    "elicit": ("tau", "family", "k", "p", "radius", "alpha_variance", "beta_variance"),
}.items()}


def _get(cfg: dict, key: str, default=None, required: bool = False) -> str:
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required config key {key!r}")
    return default


# ---------------------------------------------------------------------------
# data ingestion


def _numeric_grid(path: str):
    """(header, body) of a CSV whose data lines numpy's C reader parses into
    one float per header field, NaN-free and without a warning; None for any
    other file.  Its float parsing is ``float()``'s (``PyOS_string_to_double``),
    so such a file gives the per-row parser's values."""
    try:
        with open(path, newline="") as handle:
            header = next(csv.reader(handle), None)
            if header is None:
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                body = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, Warning):
        return None
    if body.shape[0] == 0 or body.shape[1] != len(header) or np.isnan(body).any():
        return None
    return [h.strip() for h in header], body


def _parse_rows(path: str, response_cols, covariate_cols):
    """The per-row parser: (values of the named columns, rows_in,
    rows_dropped), dropping rows with a missing cell in those columns and
    naming the line of any other fault."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
                rows.append((lineno, row))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    idx = _column_indices(path, header, response_cols, covariate_cols)
    parsed, dropped = [], 0
    for lineno, row in rows:
        vals = []
        ok = True
        for j in idx:
            cell = row[j].strip()
            if cell == "" or cell.lower() in ("na", "nan", "null"):
                ok = False
                break
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric value {row[j]!r}") from None
        if ok:
            parsed.append(vals)
        else:
            dropped += 1
    return parsed, len(rows), dropped


def _column_indices(path: str, header, response_cols, covariate_cols) -> list[int]:
    idx = []
    for name in list(response_cols) + list(covariate_cols):
        if name not in header:
            raise DataError(f"{path}: no column named {name!r} (have {header})")
        idx.append(header.index(name))
    if len(response_cols) < 2:
        raise ConfigError("need at least 2 response columns")
    return idx


def ingest_csv(path: str, response_cols, covariate_cols=(), jitter: bool = False, seed: int = 0):
    """Read a CSV into a Dataset, dropping rows with missing values.

    A clean numeric file goes through numpy's C reader; any other file, one
    with missing cells or faults among them, through the per-row parser,
    which drops and counts the rows with missing values and names the line
    of a fault.  Both give the same bytes for a clean file.

    With ``jitter`` a uniform(0, 1) perturbation is added to every response
    entry so discrete scores become continuous (ties broken almost surely).
    Returns (dataset, report) where report counts dropped rows.
    """
    grid = _numeric_grid(path)
    if grid is None:
        parsed, rows_in, dropped = _parse_rows(path, response_cols, covariate_cols)
        if not parsed:
            raise DataError(f"{path}: no complete rows after dropping missing values")
        arr = np.array(parsed)
    else:
        header, body = grid
        arr = body.take(_column_indices(path, header, response_cols, covariate_cols), axis=1)
        rows_in, dropped = body.shape[0], 0
    k = len(response_cols)
    y = arr[:, :k]
    x = arr[:, k:] if len(covariate_cols) else None
    if jitter:
        y = y + _rng_from_seed(seed).uniform(size=y.shape)
    report = {"rows_in": rows_in, "rows_used": arr.shape[0], "rows_dropped": dropped}
    return Dataset(y=y, x=x), report


# ---------------------------------------------------------------------------
# commands


def _load_common(cfg: dict):
    path = _get(cfg, "input", required=True)
    responses = _as_list(_get(cfg, "response", required=True))
    covariates = _as_list(_get(cfg, "covariates", ""))
    jitter = _choice(_get(cfg, "jitter", "false").lower(), "jitter", ("1", "true", "yes", "0", "false", "no"))
    seed = _as_int(_get(cfg, "seed", "0"), "seed", minimum=0)
    data, report = ingest_csv(path, responses, covariates, jitter=jitter in ("1", "true", "yes"),
                              seed=seed)
    return data, report, seed


def _prior_from_config(cfg: dict, d: int) -> PriorSpec:
    mean = _as_floats(_get(cfg, "prior_mean", ",".join(["0"] * d)))
    var = _as_floats(_get(cfg, "prior_variance", ",".join(["1000"] * d)))
    if len(mean) != d or len(var) != d:
        raise ConfigError(f"prior must have dimension {d}")
    return PriorSpec(mean=np.array(mean), covariance=np.diag(var))


def _sampler_settings(cfg: dict):
    draws = _as_int(_get(cfg, "draws", str(constants.DEFAULT_N_DRAWS)), "draws")
    burn = _as_int(_get(cfg, "burn_in", str(constants.DEFAULT_BURN_IN)), "burn_in", minimum=0)
    if draws <= burn:
        raise ConfigError("draws must exceed burn_in")
    return draws, burn


def _out_dir(cfg: dict, args) -> str:
    out = args.out or _get(cfg, "output_dir", "dirquant-out")
    os.makedirs(out, exist_ok=True)
    return out


def _direction(cfg: dict) -> Direction:
    """The config's direction, one entry per response column, normalized,
    at its tau."""
    u = np.array(_as_floats(_get(cfg, "direction", required=True)))
    k = len(_as_list(_get(cfg, "response", required=True)))
    if u.size != k:
        raise ConfigError(f"direction must have one entry per response column ({k}), got {u.tolist()}")
    if not 0.0 < np.linalg.norm(u) < math.inf:
        raise ConfigError(f"direction must be a nonzero finite vector, got {u.tolist()}")
    return Direction(u=u / np.linalg.norm(u), tau=_as_float(_get(cfg, "tau", required=True), "tau", _UNIT))


def _cmd_fit(cfg: dict, args) -> int:
    direction = _direction(cfg)
    level = _as_float(_get(cfg, "level", "0.95"), "level", _UNIT)
    draws, burn = _sampler_settings(cfg)
    data, report, seed = _load_common(cfg)
    prior = _prior_from_config(cfg, data.k + data.p)
    chain = gibbs_unconditional(data, direction, prior, n_draws=draws, burn_in=burn, seed=seed)
    out = _out_dir(cfg, args)
    prov = io.provenance_block(cfg, seed)
    io.write_chain(chain, os.path.join(out, "chain.csv"), os.path.join(out, "chain.json"),
                   extra_meta={"provenance": prov, "ingest": report})
    theta = posterior_mean(chain)
    summary = {
        "posterior_mean": {name: float(v) for name, v in zip(chain.names, chain.post_burn().mean(axis=0))},
        "acceptance_rate": chain.acceptance_rate,
        "subgradient": None,
        "ci": None,
        "provenance": prov,
        "ingest": report,
    }
    sg = subgradient_diagnostics(data, direction, theta)
    summary["subgradient"] = {"sg1": sg.sg1, "sg2": [float(v) for v in sg.sg2], "n": sg.n}
    if data.p == 0 and data.k == 2:
        ci = asymptotic_ci(chain, data, direction, level=level)
        summary["ci"] = {
            "names": list(ci.names),
            "lower": [float(v) for v in ci.lower],
            "upper": [float(v) for v in ci.upper],
            "std_error": [float(v) for v in ci.std_error],
            "level": ci.level,
        }
    io.write_json(os.path.join(out, "fit.json"), summary)
    print(f"fit: wrote chain.csv, chain.json, fit.json to {out}")
    return 0


def _say_if_empty(command: str, poly, where: str) -> None:
    """An empty polygon is written as a legal region; stderr says why."""
    if poly.is_empty:
        print(f"{command}: warning: the {where} region is empty: its {poly.n_directions} fitted "
              "halfplanes share no region of positive area (the responses may lie on a line, "
              "or no point may be that deep)", file=sys.stderr)


def _cmd_contour(cfg: dict, args) -> int:
    if _as_list(_get(cfg, "covariates", "")):
        raise ConfigError("contour takes no covariates; tube slices the conditional quantile regions")
    taus = [_as_float(v, "tau", _UNIT) for v in _as_list(_get(cfg, "tau", required=True))]
    n_dir = _as_int(_get(cfg, "directions", str(constants.DEFAULT_N_DIRECTIONS)), "directions", minimum=3)
    estimator = _choice(_get(cfg, "estimator", "bayes-mean"), "estimator", ("bayes-mean", "frequentist"))
    chain_keys = [key for key in ("draws", "burn_in") if key in cfg]
    if estimator == "frequentist" and chain_keys:
        raise ConfigError(f"contour with estimator=frequentist runs no chain and reads no "
                          f"{', '.join(map(repr, chain_keys))}")
    draws, burn = _sampler_settings(cfg)
    data, report, seed = _load_common(cfg)
    out = _out_dir(cfg, args)
    prov = io.provenance_block(cfg, seed)
    polys = tau_contours(data, taus, n_directions=n_dir, estimator=estimator,
                         n_draws=draws, burn_in=burn, seed=seed)
    for tau, poly in zip(taus, polys):
        tag = f"{tau:g}".replace(".", "p")
        io.write_polygon(poly, os.path.join(out, f"contour_tau{tag}.csv"),
                         os.path.join(out, f"contour_tau{tag}.json"), provenance=prov)
        _say_if_empty("contour", poly, f"tau={tau:g}")
    print(f"contour: wrote {len(taus)} polygon(s) to {out}")
    return 0


def _cmd_tube(cfg: dict, args) -> int:
    if not _as_list(_get(cfg, "covariates", "")):
        raise ConfigError("tube requires at least one covariate column (covariates)")
    taus = [_as_float(v, "tau", _UNIT) for v in _as_list(_get(cfg, "tau", required=True))]
    x0s = _as_floats(_get(cfg, "x0", required=True))
    n_dir = _as_int(_get(cfg, "directions", str(constants.DEFAULT_N_DIRECTIONS)), "directions", minimum=3)
    draws, burn = _sampler_settings(cfg)
    kind = _choice(_get(cfg, "design", "local-constant"), "design", ("local-constant", "local-bilinear"))
    h = _get(cfg, "bandwidth", None)
    bandwidth = _as_float(h, "bandwidth", _POSITIVE) if h else None
    data, report, seed = _load_common(cfg)
    kernel = KernelSpec(bandwidth=bandwidth or default_bandwidth(data.x))
    for x0 in x0s:  # every window, before the first slice is written
        _window_weights(kernel, data.x, x0)
    out = _out_dir(cfg, args)
    prov = io.provenance_block(cfg, seed)
    for tau in taus:
        for x0 in x0s:
            poly = tube_slice(data, tau, x0, kernel, design_kind=kind,
                              n_directions=n_dir, n_draws=draws, burn_in=burn, seed=seed)
            tag = f"tau{tau:g}_x{x0:g}".replace(".", "p").replace("-", "m")
            io.write_polygon(poly, os.path.join(out, f"tube_{tag}.csv"),
                             os.path.join(out, f"tube_{tag}.json"), provenance=prov)
            _say_if_empty("tube", poly, f"tau={tau:g}, x0={x0:g}")
    print(f"tube: wrote {len(taus) * len(x0s)} slice(s) to {out}")
    return 0


def _cmd_ci(cfg: dict, args) -> int:
    if _as_list(_get(cfg, "covariates", "")):
        raise ConfigError("asymptotic intervals are not supported by the method for p > 0 (covariates)")
    if len(_as_list(_get(cfg, "response", required=True))) != 2:
        raise ConfigError("interval construction is implemented for k = 2 only: give 2 response columns")
    direction = _direction(cfg)
    level = _as_float(_get(cfg, "level", "0.95"), "level", _UNIT)
    draws, burn = _sampler_settings(cfg)
    data, report, seed = _load_common(cfg)
    prior = _prior_from_config(cfg, data.k)
    chain = gibbs_unconditional(data, direction, prior, n_draws=draws, burn_in=burn, seed=seed)
    ci = asymptotic_ci(chain, data, direction, level=level)
    nci = naive_ci(chain, level=level)
    out = _out_dir(cfg, args)
    io.write_json(os.path.join(out, "ci.json"), {
        "names": list(ci.names),
        "estimate": [float(v) for v in ci.estimate],
        "std_error": [float(v) for v in ci.std_error],
        "lower": [float(v) for v in ci.lower],
        "upper": [float(v) for v in ci.upper],
        "naive_lower": [float(v) for v in nci.lower],
        "naive_upper": [float(v) for v in nci.upper],
        "level": level,
        "provenance": io.provenance_block(cfg, seed),
        "ingest": report,
    })
    print(f"ci: wrote ci.json to {out}")
    return 0


def _cmd_simulate(cfg: dict, args) -> int:
    profile = _choice(_get(cfg, "profile", "desk"), "profile", ("desk", "paper"))
    config = simlab.DESK_PROFILE if profile == "desk" else simlab.PAPER_PROFILE
    overrides = {}
    if "replications" in cfg:
        overrides["replications"] = _as_int(cfg["replications"], "replications", minimum=1)
    if "sample_sizes" in cfg:
        # every chain needs more rows than its design [y_perp, x, 1] has
        # columns, or it has no init fit and starts from the prior mean
        columns = max(simlab.dgp_stacked_mean(dgp).size + 1 for dgp in config.dgps)
        sizes = tuple(_as_int(v, "sample_sizes", minimum=columns + 1) for v in _as_list(cfg["sample_sizes"]))
        if not sizes:
            raise ConfigError("sample_sizes must list at least one sample size")
        overrides["sample_sizes"] = sizes
    if "master_seed" in cfg:
        overrides["master_seed"] = _as_int(cfg["master_seed"], "master_seed", minimum=0)
    if overrides:
        config = replace(config, **overrides)
    workers = _as_int(_get(cfg, "threads", str(args.threads)), "threads", minimum=1)
    which = set(_as_list(_get(cfg, "tables", ",".join(simlab.TABLES))))
    if not which or not which <= set(simlab.TABLES):
        raise ConfigError(f"tables must name some of {', '.join(simlab.TABLES)}, got {sorted(which)}")
    out = _out_dir(cfg, args)
    prov = io.provenance_block(cfg, config.master_seed)
    tables = simlab.simulation_tables(config, workers=workers, tables=which)
    for name in sorted(which):
        io.write_table_csv(os.path.join(out, f"{name}.csv"), tables[name])
    for row in tables["failures"]:  # report each failed replication
        cell = " ".join(f"{k}={v}" for k, v in row.items() if k not in ("rep", "error"))
        print(f"simulate: {cell} replication {row['rep']} failed: {row['error']}", file=sys.stderr)
    io.write_json(os.path.join(out, "provenance.json"), prov)
    print(f"simulate: wrote tables to {out}")
    return 0


def _cmd_elicit(cfg: dict, args) -> int:
    tau = _as_float(_get(cfg, "tau", required=True), "tau", _UNIT)
    family = _choice(_get(cfg, "family", "standard-normal"), "family",
                     ("standard-normal", "uniform-ball", "custom-radius"))
    k = _as_int(_get(cfg, "k", "2"), "k", minimum=2)
    p = _as_int(_get(cfg, "p", "0"), "p", minimum=0)
    if "radius" in cfg and family != "custom-radius":
        raise ConfigError(f"elicit with family={family} reads no 'radius'; only family=custom-radius does")
    radius = _as_float(cfg["radius"], "radius") if "radius" in cfg else None
    if family == "custom-radius" and not (radius is not None and radius >= 0.0):
        raise ConfigError("custom-radius family needs a nonnegative radius")
    prior = spherical_prior(
        tau, family, k, p,
        alpha_variance=_as_float(_get(cfg, "alpha_variance", "1000"), "alpha_variance", _POSITIVE),
        beta_variance=_as_float(_get(cfg, "beta_variance", "1000"), "beta_variance", _POSITIVE),
        radius=radius,
    )
    out = _out_dir(cfg, args)
    io.write_json(os.path.join(out, "prior.json"), {
        "tau": prior.tau,
        "family": prior.family,
        "radius": prior.radius,
        "mean": [float(v) for v in prior.spec.mean],
        "covariance_diag": [float(v) for v in np.diag(prior.spec.covariance)],
        "parameter_order": "beta_y, beta_x, alpha",
        "provenance": io.provenance_block(cfg, None),
    })
    # config snippet in the grammar the fit/ci commands read
    mean_line = ", ".join(repr(float(v)) for v in prior.spec.mean)
    var_line = ", ".join(repr(float(v)) for v in np.diag(prior.spec.covariance))
    io.atomic_write_text(
        os.path.join(out, "prior.cfg"),
        f"prior_mean = {mean_line}\nprior_variance = {var_line}\n",
    )
    print(f"elicit: wrote prior.json and prior.cfg to {out}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "contour": _cmd_contour,
    "tube": _cmd_tube,
    "ci": _cmd_ci,
    "simulate": _cmd_simulate,
    "elicit": _cmd_elicit,
}


def run(command: str, cfg: dict, args) -> int:
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    unread = [key for key in cfg if key not in _KEYS[command]]
    if unread:
        raise ConfigError(f"{command} reads no config key {', '.join(map(repr, unread))}; "
                          f"it reads {', '.join(sorted(_KEYS[command]))}")
    return _COMMANDS[command](cfg, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirquant",
        description="Bayesian multiple-output directional quantile regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override or supply a single config entry")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="worker cap for parallel cells")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config_file(args.config) if args.config else {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            cfg[key.strip()] = value.strip()
        return run(args.command, cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except DirquantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
