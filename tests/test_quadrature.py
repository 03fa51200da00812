import dataclasses
import time

import numpy as np
import pytest

from isolab.gauges import _integrate_refined, make_builtin_gauge, shift_kernel_fourier_grid
from isolab.quadrature import (
    QuadratureError,
    QuadratureSpec,
    graded_breaks,
    panel_nodes,
    refine_breaks,
)


def integrate_refined(fn, breaks, budget):
    """The gauges refinement loop on a scalar integrand."""
    return _integrate_refined(lambda x, w: np.dot(w, fn(x)), breaks, budget)


def test_panel_nodes_integrate_polynomial_exactly():
    # Gauss-Legendre with 24 points is exact for degree <= 47 per panel
    nodes, weights = panel_nodes(np.array([0.0, 0.5, 1.0]), 24)
    val = float(np.dot(weights, nodes**6))
    assert abs(val - 1.0 / 7.0) < 1e-15


def test_refine_breaks_halves_every_panel():
    out = refine_breaks(np.array([0.0, 1.0, 3.0]))
    assert np.allclose(out, [0.0, 0.5, 1.0, 2.0, 3.0])


def test_graded_breaks_inserts_interior_points_exactly():
    b = graded_breaks(0.0, 4.0, interior=(np.log(2.0),), max_step=1.0)
    assert np.log(2.0) in b
    assert b[0] == 0.0 and b[-1] == 4.0
    assert np.max(np.diff(b)) <= 1.0 + 1e-12


def test_graded_breaks_rejects_empty_range():
    with pytest.raises(ValueError):
        graded_breaks(1.0, 1.0)


def test_integrate_refined_smooth():
    val = integrate_refined(np.exp, np.array([0.0, 1.0]), 1e-12)
    assert abs(val - (np.e - 1.0)) < 1e-12


def test_integrate_refined_kink_with_split():
    # |x - 1| has a kink; splitting at the kink keeps panels analytic
    breaks = graded_breaks(0.0, 2.0, interior=(1.0,))
    val = integrate_refined(lambda x: np.abs(x - 1.0), breaks, 1e-12)
    assert abs(val - 1.0) < 1e-12


def test_integrate_refined_is_deterministic():
    f = lambda x: np.sin(3.0 * x) ** 2
    a = integrate_refined(f, np.array([0.0, 2.0]), 1e-10)
    b = integrate_refined(f, np.array([0.0, 2.0]), 1e-10)
    assert a == b


def test_integrate_refined_raises_when_budget_unreachable():
    # the square-root singularity's first panel keeps the passes apart by
    # far more than 1e-14 until the mesh bound refuses the next pass
    with pytest.raises(QuadratureError, match="exceeds the limit"):
        integrate_refined(lambda x: np.sqrt(np.abs(x)), np.array([0.0, 1.0]), 1e-14)


def test_spec_validation():
    for tol in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            QuadratureSpec(tol=tol)


def test_kernel_mesh_bounded_near_strip_edge():
    # a frequency near the strip edge once refined to 35.7M nodes and ran
    # out of memory; the mesh bound refuses it at the first oversize pass
    g = dataclasses.replace(make_builtin_gauge("rational", alpha=2.0), mellin=None)
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="exceeds the limit"):
        shift_kernel_fourier_grid(g, 1.0, [2.0 + 1.8j], QuadratureSpec(tol=1e-10))
    assert time.perf_counter() - start < 1.0


def test_kernel_mesh_bound_leaves_room_for_tight_tolerances():
    g = make_builtin_gauge("rational", alpha=0.5)
    quad = dataclasses.replace(g, mellin=None)
    got = shift_kernel_fourier_grid(quad, 1.0, [0.2j], QuadratureSpec(tol=1e-11))
    assert abs(got[0] - shift_kernel_fourier_grid(g, 1.0, [0.2j])[0]) < 1e-9
