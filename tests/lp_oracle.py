"""Exact check-loss minimizers by enumeration of every basis.

The check loss sum_i w_i rho_tau(y_i - z_i' theta) is a linear program over
theta, so with a full-rank design some minimizer is a vertex: the theta that
fits d rows exactly.  ``vertices`` solves every d-row basis and evaluates
the loss there, and ``optimum`` reads the minimum off them.  Nothing here
comes from ``dirquant.optimize``; it is numpy and itertools only, and it is
meant for the small problems (n <= 40, d <= 3) whose C(n, d) bases it can
enumerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def check_loss(r, tau, w=None):
    """sum_i w_i rho_tau(r_i), rho_tau(r) = r (tau - 1[r < 0])."""
    terms = r * (tau - (r < 0.0))
    return float(np.sum(terms if w is None else w * terms))


def vertices(z, y, tau, w=None):
    """(bases, thetas, losses) over every nonsingular d-row basis: the row
    indices in increasing order, the theta fitting them exactly and the
    check loss there."""
    n, d = z.shape
    bases = np.array(list(itertools.combinations(range(n), d)), dtype=np.intp)
    systems = z[bases]
    keep = np.abs(np.linalg.det(systems)) > 1e-12 * np.abs(systems).max(axis=(1, 2)) ** d
    bases, systems = bases[keep], systems[keep]
    thetas = np.linalg.solve(systems, y[bases][..., None])[..., 0]
    r = y[None, :] - thetas @ z.T
    terms = r * (tau - (r < 0.0))
    losses = (terms if w is None else terms * w).sum(axis=1)
    return bases, thetas, losses


@dataclass(frozen=True)
class Optimum:
    loss: float  # the minimum check loss
    theta: np.ndarray  # a minimizing vertex
    basis: tuple  # its rows, when the optimum is one nondegenerate vertex; else None


def optimum(z, y, tau, w=None):
    """The minimum over every vertex.  basis is set when every vertex within
    rounding of the minimum is the same theta and exactly d residuals vanish
    there: then the minimizer is unique and its basis is determined."""
    bases, thetas, losses = vertices(z, y, tau, w)
    best = int(np.argmin(losses))
    loss, theta = float(losses[best]), thetas[best]
    scale = 1.0 + np.abs(theta).max()
    tied = losses <= loss + 1e-10 * (1.0 + abs(loss))
    same = np.all(np.abs(thetas[tied] - theta) <= 1e-9 * scale)
    r = np.abs(y - z @ theta)
    zero = r <= 1e-9 * (1.0 + np.abs(y).max()) * scale
    basis = tuple(np.flatnonzero(zero)) if same and np.count_nonzero(zero) == z.shape[1] else None
    return Optimum(loss=loss, theta=theta, basis=basis)
