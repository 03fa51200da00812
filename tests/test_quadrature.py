import dataclasses
import time

import numpy as np
import pytest

from isolab import gauges
from isolab.gauges import (
    QuadratureError,
    _integrate_refined,
    frullani_integral,
    graded_breaks,
    make_builtin_gauge,
    panel_nodes,
    refine_breaks,
    shift_kernel_fourier_grid,
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
    # the budget is checked on both paths of the transform, closed form too
    g = make_builtin_gauge("exp")
    quad = dataclasses.replace(g, mellin=None)
    for tol in (0.0, -1.0, np.nan):
        for call in (
            lambda: frullani_integral(g, 2.0, tol),
            lambda: shift_kernel_fourier_grid(g, 1.0, [0.5], tol),
            lambda: shift_kernel_fourier_grid(quad, 1.0, [0.5], tol),
        ):
            with pytest.raises(ValueError, match="tol must be positive"):
                call()


def test_kernel_mesh_bounded_near_strip_edge():
    # a frequency near the strip edge once refined to 35.7M nodes and ran
    # out of memory; the mesh bound refuses it at the first oversize pass
    g = dataclasses.replace(make_builtin_gauge("rational", alpha=2.0), mellin=None)
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="exceeds the limit"):
        shift_kernel_fourier_grid(g, 1.0, [2.0 + 1.8j], 1e-10)
    assert time.perf_counter() - start < 1.0


def test_kernel_mesh_bound_leaves_room_for_tight_tolerances():
    g = make_builtin_gauge("rational", alpha=0.5)
    quad = dataclasses.replace(g, mellin=None)
    got = shift_kernel_fourier_grid(quad, 1.0, [0.2j], 1e-11)
    assert abs(got[0] - shift_kernel_fourier_grid(g, 1.0, [0.2j])[0]) < 1e-9


def test_every_panel_pass_goes_through_the_module_panel_nodes(monkeypatch):
    # perfbench/tracer.py counts kernel nodes and passes by rebinding
    # gauges.panel_nodes, so the refinement loop must look it up there
    g = make_builtin_gauge("clip")
    quad = dataclasses.replace(g, mellin=None)
    calls = {
        "frullani": lambda: frullani_integral(g, 2.0),
        "panels": lambda: shift_kernel_fourier_grid(quad, 1.0, [0.0, 1.5], 1e-10),
        "closed": lambda: shift_kernel_fourier_grid(g, 1.0, [0.0, 1.5], 1e-10),
    }
    plain = {name: call() for name, call in calls.items()}
    sizes = []

    def counted(breaks, points):
        nodes, weights = panel_nodes(breaks, points)
        sizes.append(nodes.size)
        return nodes, weights

    monkeypatch.setattr(gauges, "panel_nodes", counted)
    for name, call in calls.items():
        sizes.clear()
        assert np.array_equal(call(), plain[name]), name
        if name == "closed":
            assert sizes == []
        else:
            # a converged refinement takes two passes at least, each halving every panel
            assert len(sizes) >= 2, name
            assert all(b == 2 * a for a, b in zip(sizes, sizes[1:])), (name, sizes)
