"""Bivariate halfspace (Tukey) depth over a dense direction grid, numpy only.

An oracle that shares no code with the library's angular sweep
(``contours.tukey_depth``).  For each grid normal u the closed halfplane
{y : u'y <= u'p} through the point p holds a share of the sample, and the
smallest share is the grid depth.  It never reads below the exact depth, and
it equals it once some grid normal falls strictly inside the gap between
events (directions where a point enters or leaves the halfplane) at which
the exact minimum is attained, as a 2e5-direction grid does on samples of a
few dozen points.
"""

from __future__ import annotations

import numpy as np


def grid_depth(point, y, n_directions: int = 200_000) -> float:
    """Smallest share of the rows of ``y`` (n, 2) in a closed halfplane through ``point``."""
    angles = 2.0 * np.pi * np.arange(n_directions) / n_directions
    normals = np.stack([np.cos(angles), np.sin(angles)])
    rel = np.asarray(y, dtype=float) - np.asarray(point, dtype=float)
    return float(np.min(np.mean(rel @ normals <= 0.0, axis=0)))
