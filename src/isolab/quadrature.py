"""Panel-based Gauss-Legendre integration with dyadic refinement.

All half-line integrals in this package are reduced to a finite panel mesh
plus analytically bounded head/tail remainders.  The mesh is refined by
splitting every panel in half until two successive passes agree within the
assigned budget, so results are deterministic for a given spec.
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
    "integrate_refined",
    "graded_breaks",
]


class QuadratureError(RuntimeError):
    """Panel refinement did not converge within the allowed doublings or mesh size."""


class StripViolationError(ValueError):
    """A transform was requested outside the certified analyticity strip."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget and mesh parameters shared by the integral routines.

    tol            total absolute error budget for one integral
    points         Gauss-Legendre nodes per panel
    max_doublings  cap on dyadic refinement passes
    strip_margin   fraction of the decay exponent kept clear of the strip
                   boundary when evaluating transforms at complex arguments
    """

    tol: float = 1e-9
    points: int = 24
    max_doublings: int = 14
    strip_margin: float = 0.05

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.points < 2:
            raise ValueError("points must be at least 2")
        if not (0 <= self.strip_margin < 1):
            raise ValueError("strip_margin must lie in [0, 1)")


# largest mesh panel_nodes builds; refinement past it would exhaust memory
# long before max_doublings ends the loop
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


def integrate_refined(fn, breaks, spec: QuadratureSpec, budget=None):
    """Integrate fn over the mesh, doubling panels until stable.

    fn must accept a 1-D array of nodes and return values of the same
    shape (real or complex).  Raises QuadratureError if two successive
    refinements never agree within the budget.
    """
    if budget is None:
        budget = spec.tol
    prev = None
    change = np.inf
    for _ in range(spec.max_doublings + 1):
        nodes, weights = panel_nodes(breaks, spec.points)
        val = np.dot(weights, fn(nodes))
        if prev is not None:
            change = abs(val - prev)
            if change <= budget:
                return val
        prev = val
        breaks = refine_breaks(breaks)
    raise QuadratureError(
        f"panel refinement did not reach budget {budget:g} "
        f"after {spec.max_doublings} doublings (last change {change:g})"
    )
