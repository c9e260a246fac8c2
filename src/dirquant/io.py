"""Artifact serialization: chains, polygons, experiment tables.

All writers go through a temp-then-rename step so a crash never leaves a
partial file, and every JSON artifact embeds (version, config hash, master
seed) for provenance.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from . import __version__
from .contours import ContourPolygon
from .samplers import Chain

__all__ = [
    "config_hash",
    "provenance_block",
    "atomic_write_text",
    "write_chain",
    "write_polygon",
    "write_table_csv",
    "write_json",
]

PACKAGE_VERSION = __version__


def _fmt(x: float) -> str:
    return repr(float(x))  # shortest round-trip representation


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def provenance_block(config: dict, seed) -> dict:
    return {
        "version": PACKAGE_VERSION,
        "config_hash": config_hash(config),
        "master_seed": seed,
    }


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp's owner-only 0600 would survive the rename; give the file
        # the mode a plain open(path, "w") would (umask is read by setting it)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, default=str) + "\n")


def write_chain(chain: Chain, csv_path: str, meta_path: str, extra_meta: dict | None = None) -> None:
    """One draw per row with named columns, plus a JSON sidecar of metadata."""
    names = chain.names or tuple(f"theta_{j}" for j in range(chain.dim))
    lines = [",".join(names)]
    for row in chain.draws:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    meta = {
        "seed": chain.seed,
        "burn_in": chain.burn_in,
        "sampler": chain.sampler,
        "n_draws": int(chain.draws.shape[0]),
        "names": list(names),
        "layout": list(chain.layout) if chain.layout else None,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(meta_path, meta)


def write_polygon(polygon: ContourPolygon, csv_path: str, json_path: str, provenance: dict | None = None) -> None:
    """Vertex ring as CSV (closed: first vertex repeated) and GeoJSON-style JSON."""
    verts = polygon.vertices
    lines = ["x,y"]
    if verts.shape[0]:
        ring = np.vstack([verts, verts[:1]])
        for vx, vy in ring:
            lines.append(f"{_fmt(vx)},{_fmt(vy)}")
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    coords = [[float(a), float(b)] for a, b in verts]
    if coords:
        coords.append(coords[0])
    payload = {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [coords]},
        "properties": {
            "tau": polygon.tau,
            "n_directions": polygon.n_directions,
            "empty": polygon.is_empty,
        },
    }
    if provenance:
        payload["properties"]["provenance"] = provenance
    write_json(json_path, payload)


def write_table_csv(path: str, rows: list[dict], columns=None) -> None:
    if not rows:
        atomic_write_text(path, "\n")
        return
    if columns is None:
        columns = list(rows[0].keys())
    out = [",".join(str(c) for c in columns)]
    for row in rows:
        cells = []
        for c in columns:
            v = row.get(c, "")
            if isinstance(v, float):
                cells.append(_fmt(v))
            elif isinstance(v, tuple):
                cells.append("(" + " ".join(_fmt(t) for t in v) + ")")
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    atomic_write_text(path, "\n".join(out) + "\n")
