"""In-memory span recorder for a traced benchmark command.

``install`` wraps every public function of the layer modules (each name in
the module's ``__all__``) in every ``dirquant`` module namespace that binds
it, so calls made through re-exports (``contours.gibbs_unconditional``,
``samplers.fit_check_loss``) are seen as calls into the defining layer.  A
span records name, start, end, parent, operation id and a few counts read
from the call's arguments and result.  Spans stay in memory and ``dump``
writes them once, when the command has finished.

``sample_gig_half`` runs about once per Gibbs sweep, so its calls are
aggregated into the parent span (count, seconds, latents) instead of
getting a span each.

``layer_metrics`` turns one dumped trace into the per-layer metrics.  Self
time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("samplers", "optimize", "simlab", "inference", "contours", "geometry", "cli", "io")
AGGREGATED = {"samplers.sample_gig_half"}
ORACLES = {"simlab.population_params_oracle", "simlab.conditional_params_oracle"}
DGPS = {"simlab.dgp_sample", "simlab.dgp4_conditional_sample"}
CHAIN_SAMPLERS = {
    "samplers.gibbs_unconditional",
    "samplers.gibbs_conditional",
    "samplers.gibbs_simultaneous",
    "samplers.metropolis_hastings",
}

# span tuple fields
NAME, START, END, PARENT, OP, INFO = range(6)


def _len_or_zero(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


def _rows(obj) -> int:
    n = getattr(obj, "n", None)
    if isinstance(n, int):
        return n
    shape = getattr(obj, "shape", None)
    return int(shape[0]) if shape else 0


def _chains(result) -> tuple[int, int]:
    """(chains, chain-sweeps) in a sampler result: a Chain or a sequence of them."""
    items = result if isinstance(result, (list, tuple)) else [result]
    draws = [getattr(c, "draws", None) for c in items]
    draws = [d for d in draws if d is not None]
    return len(draws), int(sum(d.shape[0] for d in draws))


def _info(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Exact counts of one call, read from its arguments and result."""
    a = bound.arguments
    if name in CHAIN_SAMPLERS:
        chains, sweeps = _chains(result)
        return {"chains": chains, "sweeps": sweeps}
    if name.startswith("optimize."):
        first = next(iter(a.values()))
        return {
            "rows": _rows(first),
            "iterations": int(getattr(result, "iterations", 0)),
            "converged": bool(getattr(result, "converged", False)),
        }
    if name in ORACLES:
        return {"rows": int(a["mc_size"])}
    if name == "contours.intersect_halfplanes":
        return {"planes": _len_or_zero(a["planes"])}
    if name == "geometry.project":
        return {"rows": _rows(a["data"])}
    if name == "cli.ingest_csv":
        return {"rows": int(result[1]["rows_used"])}
    if name == "io.atomic_write_text":
        return {"bytes": len(a["text"].encode("utf-8"))}
    return {}


class Recorder:
    """Spans of one command process; ``op`` is the operation id they share."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.aggregates: dict[int, dict[str, list]] = {}

    def wrap(self, fn, name: str):
        sig = inspect.signature(fn)
        clock = time.perf_counter

        if name in AGGREGATED:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                dt = clock() - t0
                parent = self.stack[-1] if self.stack else -1
                agg = self.aggregates.setdefault(parent, {}).setdefault(name, [0, 0.0, 0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += int(getattr(out, "size", 1))
                return out

            return leaf

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, clock(), None, parent, self.op, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[INFO] = {"error": True}
                raise
            finally:
                self.stack.pop()
            span[END] = clock()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span[INFO] = _info(name, bound, out)
            return out

        return spanned

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "aggregates": {str(k): v for k, v in self.aggregates.items()},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def install(op: int) -> Recorder:
    """Wrap the public functions of every layer module; returns the recorder."""
    rec = Recorder(op)
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"dirquant.{layer}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = rec.wrap(fn, f"{layer}.{attr}")
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dirquant" or modname.startswith("dirquant.")):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                setattr(mod, attr, wrappers[id(val)])
    return rec


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process)


def _ratio(num: float, den: float) -> float:
    # 0 where the workload never enters the layer
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer counts and times of one trace; callers pick the names they report."""
    spans = trace["spans"]
    aggregates = {int(k): v for k, v in trace["aggregates"].items()}
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    gig_calls = gig_s = latents = 0
    for parent, by_name in aggregates.items():
        for calls, secs, elems in by_name.values():
            gig_calls += calls
            gig_s += secs
            latents += elems
            if parent >= 0:
                child_s[parent] += secs

    def layer(i: int) -> str:
        return spans[i][NAME].split(".", 1)[0]

    def outermost(i: int) -> bool:
        p = spans[i][PARENT]
        return p < 0 or layer(p) != layer(i)

    def under_oracle(i: int) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in ORACLES:
                return True
            p = spans[p][PARENT]
        return False

    m: dict[str, float] = defaultdict(float)
    row_iters = 0.0
    for i, s in enumerate(spans):
        name, lay, info = s[NAME], layer(i), s[INFO] or {}
        dur = s[END] - s[START]
        m[f"{lay}.self_s"] += dur - child_s[i]
        top = outermost(i)
        if lay == "samplers" and top and name in CHAIN_SAMPLERS:
            m["samplers.chains"] += info.get("chains", 0)
            m["samplers.sweeps"] += info.get("sweeps", 0)
        elif lay == "optimize" and top:
            m["optimize.fits"] += 1
            m["optimize.rows"] += info.get("rows", 0)
            m["optimize.iterations"] += info.get("iterations", 0)
            m["optimize.converged"] += info.get("converged", False)
            row_iters += info.get("rows", 0) * info.get("iterations", 0)
        elif name in ORACLES:
            m["simlab.oracle_calls"] += 1
            m["simlab.oracle_rows"] += info.get("rows", 0)
            m["simlab.oracle_s"] += dur
        elif name in DGPS and not under_oracle(i):
            m["simlab.replications"] += 1
            m["simlab.dgp_s"] += dur
        elif lay == "inference" and top:
            m["inference.calls"] += 1
        elif name == "contours.intersect_halfplanes":
            m["contours.intersections"] += 1
            m["contours.planes"] += info.get("planes", 0)
            m["contours.intersect_s"] += dur
        elif name == "geometry.project":
            m["geometry.project_calls"] += 1
            m["geometry.project_rows"] += info.get("rows", 0)
        elif name == "cli.ingest_csv":
            m["cli.ingest_rows"] += info.get("rows", 0)
            m["cli.ingest_s"] += dur
        if lay == "io":
            if name == "io.atomic_write_text":
                m["io.files"] += 1
                m["io.bytes_written"] += info.get("bytes", 0)
            if top:
                m["io.write_s"] += dur

    # the GIG draw is samplers work: its time was taken out of its parent span
    m["samplers.self_s"] += gig_s
    m["samplers.gig_calls"] = gig_calls
    m["samplers.latents"] = latents
    m["samplers.sweep_us"] = 1e6 * _ratio(m["samplers.self_s"] - gig_s, m["samplers.sweeps"])
    m["samplers.gig_ns_per_latent"] = 1e9 * _ratio(gig_s, latents)
    m["samplers.gig_share"] = _ratio(gig_s, m["samplers.self_s"])
    m["optimize.ns_per_row_iter"] = 1e9 * _ratio(m["optimize.self_s"], row_iters)
    m["optimize.converged_ratio"] = _ratio(m["optimize.converged"], m["optimize.fits"])
    return dict(m)
