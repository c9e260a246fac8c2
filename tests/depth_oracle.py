"""Exact bivariate halfspace (Tukey) depth by an angular sweep, numpy only.

The depth of a point p in a sample is the smallest share of the sample in a
closed halfplane whose boundary passes through p (Rousseeuw & Ruts 1996,
Applied Statistics 45, algorithm AS 307).  Seen from p, the other points
sit at angles theta_i, and the closed halfplane with inner normal at angle
phi + pi/2 holds the points with theta_i in [phi, phi + pi], plus every
point equal to p.  That count only changes where phi or phi + pi crosses
an angle, and it is smallest strictly between such events, where the
boundary holds no point.  The sweep sorts the angles once and counts the
points of each half-circle that starts midway between two neighbouring
events by binary search, so one query costs O(n log n).
"""

from __future__ import annotations

import numpy as np


def halfspace_depth(point, y) -> float:
    """Exact halfspace depth of ``point`` in the rows of ``y`` (n, 2), as a share of n."""
    y = np.asarray(y, dtype=float)
    v = y - np.asarray(point, dtype=float)
    at_point = np.all(v == 0.0, axis=1)
    theta = np.sort(np.mod(np.arctan2(v[~at_point, 1], v[~at_point, 0]), 2.0 * np.pi))
    if theta.size == 0:
        return 1.0
    events = np.unique(np.mod(np.concatenate([theta, theta + np.pi]), 2.0 * np.pi))
    gaps = np.diff(np.append(events, events[0] + 2.0 * np.pi))
    phi = events + gaps / 2.0
    # theta and theta + 2 pi, so each half-circle [phi, phi + pi] with phi in
    # [0, 3 pi) is one contiguous run of the sorted angles
    wrapped = np.concatenate([theta, theta + 2.0 * np.pi])
    counts = np.searchsorted(wrapped, phi + np.pi, side="right") - np.searchsorted(wrapped, phi, side="left")
    return float((counts.min() + np.count_nonzero(at_point)) / y.shape[0])
