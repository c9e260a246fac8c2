"""Output checks for one benchmark command.

Every check works on the files a command wrote and raises ``CheckError``
with a reason when they are wrong.  The geometry here is independent of
dirquant's own polygon code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os


class CheckError(Exception):
    """An artifact is missing, unparsable or numerically wrong."""


def read_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{os.path.basename(path)}: {exc}") from None


def read_csv(path: str) -> list[dict]:
    try:
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        raise CheckError(f"{os.path.basename(path)}: {exc}") from None
    if not rows:
        raise CheckError(f"{os.path.basename(path)}: no rows")
    return rows


def number(text: str, where: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise CheckError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckError(f"{where}: not finite: {text!r}")
    return value


def _strip_provenance(obj):
    if isinstance(obj, dict):
        return {k: _strip_provenance(v) for k, v in obj.items() if k != "provenance"}
    if isinstance(obj, list):
        return [_strip_provenance(v) for v in obj]
    return obj


def digest(out_dir: str, names) -> str:
    """SHA-256 over the named artifacts, with JSON provenance fields removed."""
    h = hashlib.sha256()
    for name in sorted(names):
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            body = json.dumps(_strip_provenance(read_json(path)), sort_keys=True).encode()
        else:
            with open(path, "rb") as handle:
                body = handle.read()
        h.update(name.encode() + b"\0" + body + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# polygons


def read_polygon(csv_path: str, json_path: str) -> list[tuple[float, float]]:
    """Vertex ring of a contour artifact; the CSV and the JSON must agree."""
    rows = read_csv(csv_path)
    ring = [(number(r.get("x"), csv_path), number(r.get("y"), csv_path)) for r in rows]
    feature = read_json(json_path)
    try:
        coords = [tuple(map(float, c)) for c in feature["geometry"]["coordinates"][0]]
        empty = feature["properties"]["empty"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"{os.path.basename(json_path)}: bad GeoJSON: {exc!r}") from None
    if coords != ring:
        raise CheckError(f"{os.path.basename(csv_path)} and its JSON disagree")
    if empty or len(ring) < 4 or ring[0] != ring[-1]:
        raise CheckError(f"{os.path.basename(csv_path)}: empty or open contour")
    return ring[:-1]


def area(poly) -> float:
    return 0.5 * sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1])
    )


def check_convex_ccw(poly, where: str) -> None:
    size = area(poly)
    if size <= 0.0:
        raise CheckError(f"{where}: polygon is not counterclockwise with positive area")
    for a, b, c in zip(poly, poly[1:] + poly[:1], poly[2:] + poly[:2]):
        turn = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if turn < -1e-9 * (1.0 + size):
            raise CheckError(f"{where}: polygon is not convex")


def inside(point, poly, tol: float) -> bool:
    """Point in a convex counterclockwise polygon, up to ``tol`` in distance."""
    px, py = point
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        ex, ey = x1 - x0, y1 - y0
        if ex * (py - y0) - ey * (px - x0) < -tol * math.hypot(ex, ey):
            return False
    return True


def check_nested(polys_by_tau: dict, where: str) -> None:
    """Each contour lies inside the contour of the next smaller tau."""
    taus = sorted(polys_by_tau)
    for lo, hi in zip(taus, taus[1:]):
        outer, inner = polys_by_tau[lo], polys_by_tau[hi]
        scale = math.sqrt(abs(area(outer)))
        if not all(inside(v, outer, 1e-9 * scale) for v in inner):
            raise CheckError(f"{where}: contour at tau={hi} is not inside tau={lo}")


def hausdorff(a, b, n_angles: int = 720) -> float:
    """Hausdorff distance of two convex polygons via their support functions."""
    worst = 0.0
    for j in range(n_angles):
        t = 2.0 * math.pi * j / n_angles
        c, s = math.cos(t), math.sin(t)
        ha = max(c * x + s * y for x, y in a)
        hb = max(c * x + s * y for x, y in b)
        worst = max(worst, abs(ha - hb))
    return worst


# ---------------------------------------------------------------------------
# simulation tables


def table_operations(out_dir: str, table: str, cells: int) -> tuple[int, int]:
    """(attempted, failed) replications of one simulate table with ``cells`` cells.

    Rows of one cell repeat its replications/failed counts, so each cell is
    counted once; every other numeric cell must be finite.
    """
    path = os.path.join(out_dir, f"{table}.csv")
    rows = read_csv(path)
    per_cell = {}
    for r in rows:
        key = tuple(r.get(c) for c in ("dgp", "u", "tau", "n"))
        reps = int(number(r.get("replications"), path))
        failed = int(number(r.get("failed"), path))
        if per_cell.setdefault(key, (reps, failed)) != (reps, failed):
            raise CheckError(f"{table}.csv: rows of cell {key} disagree on counts")
        for col in ("rmse", "bias", "coverage", "naive_coverage", "width", "oracle"):
            if col in r and reps > 0:
                number(r.get(col), f"{table}.csv:{col}")
    if len(per_cell) != cells:
        raise CheckError(f"{table}.csv: {len(per_cell)} cells, expected {cells}")
    attempted = sum(reps + failed for reps, failed in per_cell.values())
    return attempted, sum(failed for _, failed in per_cell.values())
