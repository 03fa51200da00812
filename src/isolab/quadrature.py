"""The panel mesh behind every integral: composite Gauss-Legendre nodes.

All half-line integrals in this package are reduced to a finite panel mesh
plus analytically bounded head/tail remainders.  This module builds the
mesh (kink-split graded breaks, panel halving, a bound on the node count)
and holds the error types; the one refinement loop, which halves every
panel until two successive passes agree within the budget, is
gauges._integrate_refined, so results are deterministic for a given spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "StripViolationError",
    "panel_nodes",
    "refine_breaks",
    "graded_breaks",
]


class QuadratureError(RuntimeError):
    """Panel refinement reached the mesh bound before it converged."""


class StripViolationError(ValueError):
    """A transform was requested outside the certified analyticity strip."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget of one integral: tol is the total absolute error, shared
    between the truncated tails and the panel refinement."""

    tol: float = 1e-9

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")


# largest mesh panel_nodes builds; refinement past it would exhaust memory,
# so this bound is what ends a refinement that never converges
_MAX_NODES = 2**18


@lru_cache(maxsize=16)
def _gauss_legendre(points: int):
    x, w = np.polynomial.legendre.leggauss(points)
    return x, w


def panel_nodes(breaks, points):
    """Nodes and weights for composite Gauss-Legendre over a panel mesh.

    breaks is a sorted 1-D array of panel edges; returns flat arrays of
    nodes and weights covering [breaks[0], breaks[-1]].  Raises
    QuadratureError rather than build more than _MAX_NODES nodes.
    """
    breaks = np.asarray(breaks, dtype=float)
    count = (breaks.size - 1) * points
    if count > _MAX_NODES:
        raise QuadratureError(f"panel mesh of {count} nodes exceeds the limit of {_MAX_NODES}")
    a = breaks[:-1]
    b = breaks[1:]
    x, w = _gauss_legendre(points)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def refine_breaks(breaks):
    """Split every panel of the mesh in two."""
    breaks = np.asarray(breaks, dtype=float)
    mid = 0.5 * (breaks[:-1] + breaks[1:])
    return np.sort(np.concatenate([breaks, mid]))


def graded_breaks(lo, hi, interior=(), max_step=1.0):
    """Panel edges on [lo, hi] with the given interior split points.

    Splits are inserted exactly (useful for kink points), then every
    segment is subdivided so no panel exceeds max_step.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    pts = [lo, hi]
    for p in interior:
        if lo < p < hi:
            pts.append(float(p))
    pts = np.array(sorted(set(pts)))
    out = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        n = max(1, int(np.ceil((b - a) / max_step)))
        out.extend(np.linspace(a, b, n + 1)[1:])
    return np.array(out)
