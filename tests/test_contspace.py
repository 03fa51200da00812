import bisect
import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from isolab import contspace
from isolab.contspace import (
    AnnulusHomeo,
    DiscGrid,
    Exhaustion1D,
    ExhaustionDisc,
    GridFunction,
    IntervalGrid,
    NotWeightedComposition,
    build_interval_homeo,
    build_zigzag_fold,
    check_resolution,
    decomposition_bound_check,
    interpolation_budget,
    isometry_test_grid,
    make_composition_operator,
    random_annulus_homeo,
    random_interval_homeo,
    random_probe,
    recover_weight_and_map,
    sup_seminorm_grid,
    unimodular_field,
    weighted_composition_grid,
)

EXH = Exhaustion1D.default(3)
GRID = IntervalGrid.build(EXH, 2048)
DEXH = ExhaustionDisc.default()
DGRID = DiscGrid.build(DEXH, 128, 256)


def test_exhaustion_1d_validation():
    Exhaustion1D(((0.5, 0.5), (0.2, 0.8)))  # degenerate core allowed
    with pytest.raises(ValueError):
        Exhaustion1D(((0.2, 0.8), (0.3, 0.9)))  # not nested
    with pytest.raises(ValueError):
        Exhaustion1D(((0.0, 0.5),))  # touches the boundary


def test_exhaustion_1d_breakpoints_dedup():
    exh = Exhaustion1D(((0.5, 0.5), (0.2, 0.8)))
    assert np.array_equal(exh.breakpoints(), [0.2, 0.5, 0.8])


def test_exhaustion_excess_marks_levels():
    a, b = EXH.intervals[1]
    assert np.all(EXH.excess(np.array([a, b, 0.5 * (a + b)]), 1) <= 0.0)
    assert np.all(EXH.excess(np.array([a - 1e-9, b + 1e-9]), 1) > 1e-12)
    # off the real axis a point lies outside the level by |Im z|
    assert EXH.excess(np.array([0.5 + 0.3j]), 1)[0] == 0.3
    rho = DEXH.radii[0]
    circle = np.exp(1j * np.linspace(0.0, 6.0, 7))
    assert np.all(DEXH.excess(rho * circle, 0) <= 1e-15)
    assert np.all(DEXH.excess((rho + 1e-9) * circle, 0) > 1e-12)


def test_check_resolution_refuses_coarse_grids():
    check_resolution(GRID, EXH)
    check_resolution(DGRID, DEXH)
    exh = Exhaustion1D.default(2)
    coarse = IntervalGrid.build(exh, 2)
    with pytest.raises(ValueError, match="narrowest level band"):
        check_resolution(coarse, exh)
    with pytest.raises(ValueError, match="narrowest level band"):
        recover_weight_and_map(lambda f: f, exh, coarse)
    probes = [GridFunction.constant(coarse, 1.0)]
    with pytest.raises(ValueError, match="narrowest level band"):
        isometry_test_grid(lambda f: f, exh, probes)
    with pytest.raises(ValueError, match="narrowest level band"):
        decomposition_bound_check(lambda f: f, exh, probes)
    with pytest.raises(ValueError, match="narrowest level band"):
        check_resolution(DiscGrid.build(DEXH, 2, 512), DEXH)


def test_exhaustion_disc_validation():
    with pytest.raises(ValueError):
        ExhaustionDisc((0.8, 0.25))
    with pytest.raises(ValueError):
        ExhaustionDisc((0.5, 1.0))


def test_interval_grid_contains_breakpoints():
    for x in EXH.breakpoints():
        assert np.min(np.abs(GRID.array - x)) == 0.0
    assert GRID.array[0] == EXH.outer[0]
    assert GRID.array[-1] == EXH.outer[1]


def test_disc_grid_shape_and_center():
    radii, na = DGRID.radii, DGRID.angle_count
    counts, offsets, nodes = DGRID.counts, DGRID.offsets, DGRID.nodes
    # the centre once, as +0 + 0j; ring i >= 1 holds max(8, ceil(na r_i / r_outer)) angles
    assert counts[0] == 1 and offsets[0] == 0
    assert nodes[0] == 0.0 and not np.any(np.signbit([nodes[0].real, nodes[0].imag]))
    for i in range(1, radii.size):
        assert counts[i] == max(8, math.ceil(na * (radii[i] / radii[-1])))
        assert offsets[i] == offsets[i - 1] + counts[i - 1]
        ring = radii[i] * np.exp(2j * np.pi * np.arange(counts[i]) / counts[i])
        assert np.array_equal(nodes[offsets[i] : offsets[i] + counts[i]], ring)
    assert counts[-1] == na and nodes.size == offsets[-1] + na
    for a in (nodes, radii, counts, offsets):
        assert not a.flags.writeable
    for r in DEXH.radii:
        assert np.min(np.abs(DGRID.radii - r)) == 0.0


@pytest.mark.parametrize("radial, angles, nodes, polar_nodes", [
    (64, 128, 4_177, 8_193), (128, 256, 16_537, 32_769), (256, 512, 65_833, 131_073),
])
def test_ring_grid_keeps_the_polar_cell(radial, angles, nodes, polar_nodes):
    # the same cell as the polar grid of angles x radii, with about half its nodes
    grid = DiscGrid.build(DEXH, radial, angles)
    radii = grid.radii
    assert grid.cell == max(float(np.max(np.diff(radii))), radii[-1] * 2.0 * np.pi / angles)
    assert np.all(radii[1:] * 2.0 * np.pi / grid.counts[1:] <= grid.cell)
    assert grid.nodes.size == nodes
    assert 1 + (radii.size - 1) * angles == polar_nodes


def test_grids_built_apart_compare_equal():
    assert IntervalGrid.build(EXH, 2048) == GRID
    assert DiscGrid.build(DEXH, 128, 256) == DGRID
    assert DiscGrid(tuple(DGRID.radii), 256) == DGRID
    assert DiscGrid.build(DEXH, 128, 128) != DGRID
    assert DiscGrid.build(DEXH, 129, 256) != DGRID
    assert IntervalGrid.build(EXH, 1024) != GRID
    assert GRID != DGRID and GRID != GRID.nodes


def test_grid_function_equality_compares_values():
    grid = IntervalGrid.build(Exhaustion1D.default(2), 64)
    one = GridFunction.constant(grid, 1.0)
    assert one == GridFunction.constant(IntervalGrid.build(Exhaustion1D.default(2), 64), 1.0)
    assert one != GridFunction.constant(grid, 5.0)
    assert one != GridFunction.constant(IntervalGrid.build(Exhaustion1D.default(2), 65), 1.0)


def test_grid_function_interpolation_exact_on_nodes():
    f = GridFunction.sample(GRID, lambda x: np.sin(3 * x))
    assert np.max(np.abs(f.interpolate(GRID.stencil(GRID.array)) - f.array)) == 0.0
    mid = 0.5 * (GRID.array[10] + GRID.array[11])
    want = 0.5 * (f.array[10] + f.array[11])
    assert abs(f.interpolate(GRID.stencil(np.array([mid])))[0] - want) < 1e-15


def test_grid_function_interpolation_domain_guard():
    f = GridFunction.constant(GRID, 1.0)
    with pytest.raises(ValueError, match="leaves the grid domain"):
        f.interpolate(GRID.stencil(np.array([EXH.outer[1] + 0.01])))


@pytest.mark.parametrize("grid, raw", [
    (GRID, [EXH.outer[1] + 0.01]),
    (GRID, [0.5]),
    (DGRID, [0.9j]),
    (DGRID, [0.5 + 0j]),
])
def test_interpolate_refuses_raw_points(grid, raw):
    # only a grid.stencil result interpolates; raw points, inside the domain or not, raise
    f = GridFunction.constant(grid, 1.0)
    for points in (np.array(raw), raw):
        with pytest.raises(TypeError):
            f.interpolate(points)


def test_grid_function_values_must_match_the_nodes():
    GridFunction(DGRID, np.ones(DGRID.nodes.shape))
    for grid, shape in [
        (DGRID, (DGRID.radii.size, DGRID.angle_count)),  # a polar block is not the layout
        (DGRID, (DGRID.nodes.size - 1,)),
        (GRID, (GRID.nodes.size + 1,)),
    ]:
        with pytest.raises(ValueError, match="values must have shape"):
            GridFunction(grid, np.ones(shape, dtype=complex))


def test_disc_interpolation_exact_on_grid_radii():
    f = GridFunction.sample(DGRID, lambda z: z**2)
    got = f.interpolate(DGRID.stencil(DGRID.nodes))
    assert np.max(np.abs(got - f.array)) < 1e-14


def _reference_interpolate(f, where):
    """Linear interpolation on the interval, the oracle."""
    nodes = f.grid.array
    return np.interp(np.clip(np.real(where), nodes[0], nodes[-1]), nodes, f.array)


def _reference_ring(f, where):
    """The ring interpolant point by point: on the two rings bracketing |z|, linear in
    angle between the ring's neighbouring nodes (its own count), then linear in r."""
    grid, v = f.grid, f.array
    radii = grid.radii.tolist()
    out = []
    for z in np.asarray(where, dtype=complex):
        r = min(np.abs(z), radii[-1])
        turn = np.mod(np.angle(z), 2.0 * np.pi) / (2.0 * np.pi)
        i1 = min(max(bisect.bisect_right(radii, r), 1), len(radii) - 1)
        wi = (r - radii[i1 - 1]) / (radii[i1] - radii[i1 - 1])
        total = 0
        for i, w in ((i1 - 1, 1 - wi), (i1, wi)):
            n, k = int(grid.counts[i]), int(grid.offsets[i])
            t = turn * n
            j = math.floor(t)  # ring i's angle j below z, angle (j + 1) % n above
            total += v[k + j % n] * (w * (1 - (t - j)))
            total += v[k + (j + 1) % n] * (w * (t - j))
        out.append(total)
    return np.array(out)


def test_stencil_interpolation_bit_exact_on_the_interval():
    rng = np.random.default_rng(51)
    f = random_probe(GRID, rng)
    lo, hi = GRID.array[0], GRID.array[-1]
    edge = contspace._EDGE / 2
    x = np.concatenate([
        rng.uniform(lo, hi, 5000), GRID.array, [lo - edge, lo, lo + edge, hi - edge, hi, hi + edge],
    ])
    for where in (x, x + 0.3j):
        assert np.array_equal(f.interpolate(GRID.stencil(where)), _reference_interpolate(f, where))


def test_stencil_interpolation_bit_exact_on_the_disc():
    rng = np.random.default_rng(52)
    f = random_probe(DGRID, rng)
    radii = DGRID.radii
    outer = radii[-1]
    theta = rng.uniform(-np.pi, np.pi, radii.size)
    below_2pi = np.nextafter(2.0 * np.pi, 0.0)
    z = np.concatenate([
        np.sqrt(rng.uniform(0, outer**2, 5000)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 5000)),
        radii * np.exp(1j * theta),  # exactly on every ring radius
        radii[1] * rng.uniform(0, 1, 64) * np.exp(1j * theta[:64]),  # inside ring 1: i0 = 0
        (outer + contspace._EDGE / 2) * np.exp(1j * theta),
        radii * np.exp(1j * below_2pi),
        radii + 0j,  # theta = 0
        radii - 1e-300j,  # theta just below 0, so just below 2 pi after the wrap
        DGRID.nodes,
    ])
    assert np.array_equal(f.interpolate(DGRID.stencil(z)), _reference_ring(f, z))


@pytest.mark.parametrize("grid, where", [
    (GRID, [GRID.array[0] - 2 * contspace._EDGE]),
    (GRID, [GRID.array[-1] + 2 * contspace._EDGE]),
    (DGRID, [(DGRID.radii[-1] + 2 * contspace._EDGE) * 1j]),
])
def test_stencil_refuses_points_off_the_grid(grid, where):
    with pytest.raises(ValueError) as exc_info:
        grid.stencil(np.array(where))
    assert str(exc_info.value) == "interpolation point leaves the grid domain"


def test_lipschitz_estimate_linear_function():
    f = GridFunction.sample(GRID, lambda x: 3.0 * x)
    assert abs(f.lipschitz_estimate() - 3.0) < 1e-9


def _reference_ring_lipschitz(f):
    """Max slope over each node's edge to the next node on its ring and to the node
    one ring in nearest in angle (ties to the later angle), node by node."""
    grid, v, z = f.grid, f.array, f.grid.nodes
    counts, offsets = grid.counts.tolist(), grid.offsets.tolist()
    best = 0.0
    for i in range(1, len(counts)):
        n, m = counts[i], counts[i - 1]
        for j in range(n):
            a = offsets[i] + j
            nearest = math.floor(Fraction(j * m, n) + Fraction(1, 2)) % m
            for b in (offsets[i] + (j + 1) % n, offsets[i - 1] + nearest):
                best = max(best, np.abs(v[a] - v[b]) / np.abs(z[a] - z[b]))
    return float(best)


def test_disc_lipschitz_estimate_matches_the_ring_edges():
    rng = np.random.default_rng(53)
    for f in (random_probe(DGRID, rng), unimodular_field(DGRID, rng)):
        assert f.lipschitz_estimate() == _reference_ring_lipschitz(f)
    # noise on a small grid whose ring counts all differ (8, 9, 13): its
    # steepest edge tells which inner node each node is paired with
    small = DiscGrid((0.0, 0.3, 0.55, 0.8), 13)
    for _ in range(20):
        f = GridFunction(small, [1, 1j] @ rng.normal(size=(2, small.nodes.size)))
        assert f.lipschitz_estimate() == _reference_ring_lipschitz(f)
    # a linear function's slope is its modulus, on every edge
    assert GridFunction.sample(DGRID, lambda z: 3.0 * z).lipschitz_estimate() == pytest.approx(3.0)


def _plain_stencil(grid, points):
    """DiscGrid.stencil as plain expressions, each array a fresh temporary."""
    z = np.asarray(points, dtype=complex)
    radii = grid.radii
    r = np.minimum(np.abs(z), radii[-1])
    turn = np.mod(np.angle(z), 2.0 * np.pi) / (2.0 * np.pi)
    i0 = np.clip(np.searchsorted(radii, r, side="right"), 1, radii.size - 1) - 1
    wi = (r - radii[i0]) / (radii[i0 + 1] - radii[i0])
    corners = []
    for i, w in ((i0, 1 - wi), (i0 + 1, wi)):
        n, k = grid.counts[i], grid.offsets[i]
        t = turn * n
        j = np.floor(t)
        t -= j
        j = j.astype(int)
        corners += [(k + j % n, w * (1 - t)), (k + (j + 1) % n, w * t)]
    return lambda v: sum(v[k] * w for k, w in corners)


def test_in_place_disc_stencil_is_bit_identical_to_the_plain_expressions():
    rng = np.random.default_rng(54)
    for grid in (DGRID, DiscGrid((0.0, 0.3, 0.55, 0.8), 13)):
        radii = grid.radii
        outer = radii[-1]
        edges = np.concatenate([radii, [outer]])
        below_2pi = np.nextafter(2.0 * np.pi, 0.0)
        z = np.concatenate([
            np.sqrt(rng.uniform(0, outer**2, 5000)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 5000)),
            [0j],  # the centre
            edges * np.exp(1j * rng.uniform(-np.pi, np.pi, edges.size)),  # rings, outer radius
            edges + 0j,  # angle 0
            edges * np.exp(1j * below_2pi),  # angle 2 pi - ulp
        ])
        got, want = grid.stencil(z), _plain_stencil(grid, z)
        for f in (random_probe(grid, rng), unimodular_field(grid, rng)):
            assert np.array_equal(f.interpolate(got), f.interpolate(want))


@pytest.mark.parametrize("grid", [GRID, DGRID, DiscGrid((0.0, 0.3, 0.55, 0.8), 13)])
def test_in_place_lipschitz_estimate_is_bit_identical_to_the_plain_expression(grid):
    rng = np.random.default_rng(55)
    for f in (random_probe(grid, rng), unimodular_field(grid, rng)):
        v = f.array
        assert f.lipschitz_estimate() == float(
            np.max(np.abs(v[1:] - v[grid.partners]) / grid.lengths)
        )


@pytest.mark.parametrize("grid, kinds", [(GRID, 1), (DGRID, 2)])
def test_grid_edges_are_stored_once_read_only_and_compact(grid, kinds):
    n = grid.nodes.size
    assert grid.partners.shape == grid.lengths.shape == (kinds, n - 1)
    assert grid.partners.dtype == np.min_scalar_type(n)
    assert not grid.partners.flags.writeable and not grid.lengths.flags.writeable
    assert np.array_equal(grid.lengths, np.abs(grid.nodes[1:] - grid.nodes[grid.partners]))
    assert grid.partners is grid.partners and grid.lengths is grid.lengths


def _probe_and_function(grid, seed):
    """random_probe(grid, default_rng(seed)) and the polynomial it samples, drawn alike."""
    f = random_probe(grid, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    c = (rng.normal(size=7) + 1j * rng.normal(size=7)) / (1.0 + np.arange(7))
    assert np.array_equal(f.array, np.polyval(c[::-1], grid.nodes))
    return f, lambda z: np.polyval(c[::-1], z)


@pytest.mark.parametrize("radial, angles", [(64, 128), (128, 256), (256, 512)])
def test_ring_interpolation_error_within_the_budget(radial, angles):
    grid = DiscGrid.build(DEXH, radial, angles)
    rng = np.random.default_rng(radial)
    outer = grid.radii[-1]
    z = np.sqrt(rng.uniform(0, outer**2, 20_000)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 20_000))
    stencil = grid.stencil(z)
    for seed in range(3):
        f, exact = _probe_and_function(grid, 100 * radial + seed)
        err = float(np.max(np.abs(f.interpolate(stencil) - exact(z))))
        assert err <= f.lipschitz_estimate() * grid.cell


def test_sup_seminorm_grid_trivials():
    one = GridFunction.constant(GRID, 1.0)
    for n in range(EXH.levels):
        assert sup_seminorm_grid(one, n, EXH) == 1.0
    coord = GridFunction.coordinate(GRID)
    a0, b0 = EXH.intervals[0]
    assert abs(sup_seminorm_grid(coord, 0, EXH) - b0) < 1e-15


def test_sup_seminorm_grid_nested_levels_monotone():
    f = GridFunction.sample(GRID, lambda x: np.sin(7 * x) + 0.3)
    vals = [sup_seminorm_grid(f, n, EXH) for n in range(EXH.levels)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def _beyond_outer_grid():
    """A disc grid reaching past the outer exhaustion radius."""
    return DiscGrid(tuple(np.unique(np.concatenate([np.linspace(0.0, 0.9, 91), DEXH.radii]))), 128)


@pytest.mark.parametrize("grid, exh", [
    (GRID, EXH), (DGRID, DEXH), (_beyond_outer_grid(), DEXH),
])
def test_level_of_matches_the_excess_mask(grid, exh):
    other = Exhaustion1D.default(2) if exh is EXH else ExhaustionDisc((0.5, 0.8))
    for e in (exh, other, exh):  # switching exhaustions recomputes the cached index
        level_of = grid.level_of(e)
        assert level_of.shape == grid.nodes.shape
        masks = [e.excess(grid.nodes, n) <= contspace._EDGE for n in range(e.levels)]
        for n, mask in enumerate(masks):
            assert np.array_equal(level_of <= n, mask)
        assert np.array_equal(level_of == e.levels, ~masks[-1])


@pytest.mark.parametrize("grid, exh", [(GRID, EXH), (DGRID, DEXH)])
def test_sup_seminorm_grid_matches_the_mask_formula(grid, exh):
    rng = np.random.default_rng(54)
    for f in [random_probe(grid, rng) for _ in range(4)] + [unimodular_field(grid, rng)]:
        for n in range(exh.levels):
            mask = exh.excess(grid.nodes, n) <= contspace._EDGE
            assert sup_seminorm_grid(f, n, exh) == float(np.max(np.abs(f.array)[mask]))


def test_sup_seminorm_grid_unresolved_level():
    tiny = Exhaustion1D(((0.49, 0.51), (0.2, 0.8)))
    coarse = IntervalGrid.build(tiny, 8)
    f = GridFunction.constant(coarse, 1.0)
    sup_seminorm_grid(f, 0, tiny)  # breakpoints are grid nodes, resolves
    shifted = Exhaustion1D(((0.493, 0.507), (0.2, 0.8)))
    with pytest.raises(ValueError, match="does not resolve"):
        sup_seminorm_grid(f, 0, shifted)


# ---------------------------------------------------------------------------
# interval homeomorphisms
# ---------------------------------------------------------------------------


def test_build_interval_homeo_increasing_fixes_breakpoints():
    h = build_interval_homeo(EXH, "increasing")
    for a, b in EXH.intervals:
        assert h(a) == a and h(b) == b


def test_build_interval_homeo_decreasing_swaps_breakpoints():
    h = build_interval_homeo(EXH, "decreasing")
    for a, b in EXH.intervals:
        assert abs(h(a) - b) < 1e-15 and abs(h(b) - a) < 1e-15


def test_build_interval_homeo_control_collision():
    with pytest.raises(ValueError):
        build_interval_homeo(EXH, "increasing", [(EXH.intervals[0][0], 0.3)])


def test_random_interval_homeo_slopes_bounded():
    rng = np.random.default_rng(9)
    for orientation in ("increasing", "decreasing"):
        h = random_interval_homeo(EXH, rng, orientation)
        xs = np.asarray(h.xs)
        ys = np.asarray(h.ys)
        slopes = np.abs(np.diff(ys) / np.diff(xs))
        assert np.all(slopes >= 0.45 - 1e-12)
        assert np.all(slopes <= 1.9 + 1e-12)
        # increasing maps fix every level endpoint, decreasing maps swap them
        for a, b in EXH.intervals:
            want_a, want_b = (a, b) if orientation == "increasing" else (b, a)
            assert abs(h(a) - want_a) <= 1e-12 and abs(h(b) - want_b) <= 1e-12


def test_zigzag_fold_needs_two_levels():
    with pytest.raises(ValueError):
        build_zigzag_fold(Exhaustion1D.default(1), GRID)


# ---------------------------------------------------------------------------
# isometry tests and recovery on the interval
# ---------------------------------------------------------------------------


def _probes(grid, rng, count=4):
    out = [GridFunction.constant(grid, 1.0), GridFunction.coordinate(grid)]
    out += [random_probe(grid, rng) for _ in range(count)]
    return out


@pytest.mark.parametrize("orientation", ["increasing", "decreasing"])
def test_interval_roundtrip(orientation):
    rng = np.random.default_rng(17)
    h = unimodular_field(GRID, rng)
    phi = random_interval_homeo(EXH, rng, orientation)
    T = make_composition_operator(h, phi)

    iso = isometry_test_grid(T, EXH, _probes(GRID, rng))
    assert iso.passed
    assert iso.max_gap <= iso.budget + 1e-9

    sym = recover_weight_and_map(T, EXH, GRID, rng=rng)
    assert np.max(np.abs(sym.weight.array - h.array)) < 1e-12
    assert np.max(np.abs(sym.point_map.array - phi(GRID.array))) <= GRID.cell


def test_decreasing_recovery_swap_rule():
    rng = np.random.default_rng(23)
    phi = random_interval_homeo(EXH, rng, "decreasing")
    T = make_composition_operator(GridFunction.constant(GRID, 1.0), phi)
    sym = recover_weight_and_map(T, EXH, GRID, rng=rng)
    recovered = sym.point_map.array.real
    for a, b in EXH.intervals:
        ia = int(np.argmin(np.abs(GRID.array - a)))
        ib = int(np.argmin(np.abs(GRID.array - b)))
        assert abs(recovered[ia] - b) <= GRID.cell
        assert abs(recovered[ib] - a) <= GRID.cell


def test_identity_recovery_exact():
    sym = recover_weight_and_map(lambda f: f, EXH, GRID)
    assert np.max(np.abs(sym.weight.array - 1.0)) < 1e-14
    assert np.max(np.abs(sym.point_map.array - GRID.array)) < 1e-14
    assert sym.certificate["collapsed_pairs"] == 0


def test_nonunimodular_weight_rejected():
    rng = np.random.default_rng(5)
    bad = GridFunction.constant(GRID, 2.0)
    T = make_composition_operator(bad, lambda x: x)
    iso = isometry_test_grid(T, EXH, _probes(GRID, rng))
    assert not iso.passed
    with pytest.raises(NotWeightedComposition) as exc_info:
        recover_weight_and_map(T, EXH, GRID, rng=rng)
    assert exc_info.value.check == "unimodularity"
    zero = lambda f: GridFunction.constant(GRID, 0.0)
    assert not isometry_test_grid(zero, EXH, _probes(GRID, rng)).passed


def test_zero_map_rejected():
    rng = np.random.default_rng(6)
    T = lambda f: GridFunction.constant(GRID, 0.0)
    with pytest.raises(NotWeightedComposition):
        recover_weight_and_map(T, EXH, GRID, rng=rng)


# ---------------------------------------------------------------------------
# the zigzag fold: isometric but not injective
# ---------------------------------------------------------------------------


def test_zigzag_passes_isometry_fails_injectivity_satisfies_bound():
    rng = np.random.default_rng(31)
    zig = build_zigzag_fold(EXH, GRID)
    T = make_composition_operator(GridFunction.constant(GRID, 1.0), zig)

    iso = isometry_test_grid(T, EXH, _probes(GRID, rng))
    assert iso.passed

    with pytest.raises(NotWeightedComposition) as exc_info:
        recover_weight_and_map(T, EXH, GRID, rng=rng)
    assert exc_info.value.check == "injectivity"
    assert exc_info.value.certificate["collapsed_pairs"] > 0

    probes = [random_probe(GRID, rng) for _ in range(20)]
    rep = decomposition_bound_check(T, EXH, probes)
    assert rep.passed
    assert rep.worst_slack >= 0.0


def test_decomposition_bound_identity_tight_dual():
    rng = np.random.default_rng(8)
    probes = [random_probe(GRID, rng) for _ in range(5)]
    rep = decomposition_bound_check(lambda f: f, EXH, probes)
    assert rep.passed
    assert abs(rep.dual_norm_max - 1.0) < 1e-9
    assert rep.linearity_gap < 1e-12


def test_interpolation_budget_formula():
    rng = np.random.default_rng(2)
    probes = _probes(GRID, rng, count=2)
    lip = max(p.lipschitz_estimate() for p in probes)
    assert interpolation_budget(probes, GRID.cell) == lip * GRID.cell


# ---------------------------------------------------------------------------
# disc twists
# ---------------------------------------------------------------------------


def test_annulus_homeo_preserves_circles_exactly():
    tw = AnnulusHomeo((0.0, 0.25, 0.8), (0.0, 0.0, np.pi))
    theta = np.linspace(0, 2 * np.pi, 97)
    for r in DEXH.radii:
        z = r * np.exp(1j * theta)
        assert np.max(np.abs(np.abs(tw(z)) - r)) < 1e-12


def test_annulus_homeo_untwisted_annulus_is_identity():
    tw = AnnulusHomeo((0.0, 0.25, 0.8), (0.0, 0.0, np.pi))
    z = 0.1 * np.exp(1j * np.linspace(0, 6, 11))
    assert np.max(np.abs(tw(z) - z)) < 1e-15


def test_random_annulus_homeo_slope_cap():
    rng = np.random.default_rng(12)
    for _ in range(5):
        tw = random_annulus_homeo(DEXH, rng)
        r = np.asarray(tw.twist_breaks)
        v = np.asarray(tw.twist_values)
        assert np.max(np.abs(np.diff(v) / np.diff(r))) <= 4.0 + 1e-12


def test_annulus_homeo_validation():
    with pytest.raises(ValueError):
        AnnulusHomeo((0.5, 0.2), (0.0, 1.0))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: contspace.PiecewiseLinearMap((0.0, 1.0), (0.0, np.nan)), "ys"),
        (lambda: contspace.PiecewiseLinearMap((0.0, np.nan), (0.0, 1.0)), "xs"),
        (lambda: AnnulusHomeo((0.0, 0.8), (0.0, np.nan)), "twist_values"),
        (lambda: AnnulusHomeo((0.0, np.inf), (0.0, 1.0)), "twist_breaks"),
        (lambda: DiscGrid((0.0, np.nan, 0.5), 16), "radii"),
        (lambda: IntervalGrid((0.0, np.nan, 1.0)), "nodes"),
        (lambda: ExhaustionDisc((np.nan,)), "radii"),
    ],
    ids=[
        "map-ys", "map-xs", "twist-values", "twist-breaks", "disc-grid", "interval-grid",
        "exhaustion-disc",
    ],
)
def test_models_refuse_non_finite_inputs(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_disc_roundtrip():
    rng = np.random.default_rng(19)
    h = unimodular_field(DGRID, rng)
    phi = random_annulus_homeo(DEXH, rng)
    T = make_composition_operator(h, phi)

    iso = isometry_test_grid(T, DEXH, _probes(DGRID, rng, count=2))
    assert iso.passed

    sym = recover_weight_and_map(T, DEXH, DGRID, rng=rng)
    assert np.max(np.abs(sym.weight.array - h.array)) < 1e-12
    assert np.max(np.abs(sym.point_map.array - phi(DGRID.nodes))) <= DGRID.cell


def test_disc_twist_on_exhaustion_from_the_centre():
    # a first radius of 0 is the centre itself; the twist profile lists it once
    exh = ExhaustionDisc((0.0, 0.8))
    rng = np.random.default_rng(0)
    phi = random_annulus_homeo(exh, rng)
    assert phi.twist_breaks[0] == 0.0 and phi.twist_breaks[-1] == 0.8
    grid = DiscGrid.build(exh, 256, 512)
    h = unimodular_field(grid, rng)
    sym = recover_weight_and_map(make_composition_operator(h, phi), exh, grid, rng=rng)
    assert np.max(np.abs(sym.weight.array - h.array)) < 1e-12
    assert np.max(np.abs(sym.point_map.array - phi(grid.nodes))) <= grid.cell


def test_weighted_composition_grid_direct():
    h = GridFunction.constant(GRID, 1.0j)
    out = weighted_composition_grid(h, lambda x: x, GridFunction.coordinate(GRID))
    assert np.max(np.abs(out.array - 1.0j * GRID.array)) < 1e-15


def test_disc_centre_sampled_once():
    # a map that depends on arg z at 0 takes one value there: the centre is one node, +0 + 0j
    def phi(z):
        return 0.5 * z + 0.1 * np.exp(1j * np.angle(z))

    centre = np.array([0j])
    assert GridFunction.sample(DGRID, phi).array[0] == phi(centre)[0] == 0.1
    rng = np.random.default_rng(4)
    h, f = unimodular_field(DGRID, rng), random_probe(DGRID, rng)
    out = weighted_composition_grid(h, phi, f)
    assert out.array[0] == h.array[0] * f.interpolate(DGRID.stencil(phi(centre)))[0]


# ---------------------------------------------------------------------------
# the composition operator's stencil cache
# ---------------------------------------------------------------------------


def _fresh_composition(h, phi, f):
    grid = f.grid
    return h.array * f.interpolate(grid.stencil(phi(grid.nodes)))


def test_composition_cache_alternating_maps_match_fresh_stencils():
    rng = np.random.default_rng(61)
    h = unimodular_field(DGRID, rng)
    f = random_probe(DGRID, rng)
    phis = [random_annulus_homeo(DEXH, rng) for _ in range(2)]
    ops = [make_composition_operator(h, phi) for phi in phis]
    for _ in range(2):
        for T, phi in zip(ops, phis):
            assert np.array_equal(T(f).array, _fresh_composition(h, phi, f))


def test_composition_cache_one_map_on_alternating_grids():
    rng = np.random.default_rng(62)
    phi = random_interval_homeo(EXH, rng)
    # an equal grid built apart shares the stencil; a finer one does not
    grids = [GRID, IntervalGrid.build(EXH, 1024), IntervalGrid.build(EXH, 2048)]
    hf = [(unimodular_field(g, rng), random_probe(g, rng)) for g in grids]
    for _ in range(2):
        for h, f in hf:
            out = weighted_composition_grid(h, phi, f)
            assert np.array_equal(out.array, _fresh_composition(h, phi, f))


def test_composition_keeps_at_most_one_stencil():
    rng = np.random.default_rng(63)
    h = GridFunction.constant(GRID, 1.0)
    f = random_probe(GRID, rng)
    first = random_interval_homeo(EXH, rng)
    T = make_composition_operator(h, first)
    T(f)
    ref = weakref.ref(first)
    del T, first
    gc.collect()
    assert ref() is not None  # the last stencil's map is still held
    make_composition_operator(h, random_interval_homeo(EXH, rng))(f)
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# grid-layer work counts and the injectivity paths
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name, counts):
    original = owner.__dict__[name]

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_default_disc_recovery_runs_two_searches_and_two_stencils(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, contspace._Grid, "search", counts)
    _count_calls(monkeypatch, DiscGrid, "stencil", counts)
    grid = DiscGrid.build(DEXH)
    rng = np.random.default_rng(64)
    T = make_composition_operator(unimodular_field(grid, rng), random_annulus_homeo(DEXH, rng))
    recover_weight_and_map(T, DEXH, grid, rng=rng)
    assert counts == {"search": 2, "stencil": 2}


def test_default_disc_recovery_peaks_below_sixteen_node_vectors():
    # a warm-up recovery with another map first, so the measured one swaps the
    # composition slot's stencil; the trace counts numpy's arrays made after it
    # starts (14.1 node vectors here), so not the slot's old stencil
    grid = DiscGrid.build(DEXH)
    rng = np.random.default_rng(67)
    warm_up, T = (
        make_composition_operator(unimodular_field(grid, rng), random_annulus_homeo(DEXH, rng))
        for _ in range(2)
    )
    recover_weight_and_map(warm_up, DEXH, grid, rng=rng)
    tracemalloc.start()
    try:
        recover_weight_and_map(T, DEXH, grid, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * grid.nodes.nbytes


def test_isometry_test_samples_the_map_once():
    rng = np.random.default_rng(65)
    fold = build_zigzag_fold(EXH, GRID)
    calls = 0

    def phi(x):
        nonlocal calls
        calls += 1
        return fold(x)

    probes = [random_probe(GRID, rng) for _ in range(20)]
    T = make_composition_operator(unimodular_field(GRID, rng), phi)
    assert isometry_test_grid(T, EXH, probes).passed
    assert calls == 1


def _reference_tree_certificate(exh, pts, images, cell):
    """Containment, surjectivity and collapsed pairs with one tree per level and per count."""
    planar = lambda z: np.column_stack([z.real, z.imag])  # noqa: E731
    contain = surj = 0.0
    for n in range(exh.levels):
        mask = exh.excess(pts, n) <= contspace._EDGE
        contain = max(contain, float(np.max(exh.excess(images[mask], n))))
        dists, _ = cKDTree(planar(images[mask])).query(planar(pts[mask]), k=1)
        surj = max(surj, float(np.max(dists)))
    pairs = cKDTree(planar(images)).query_pairs(0.5 * cell, output_type="ndarray")
    src = np.abs(pts[pairs[:, 0]] - pts[pairs[:, 1]])
    return {
        "containment_breach": contain,
        "surjectivity_gap": surj,
        "collapsed_pairs": int(np.sum(src > 2.0 * cell)),
    }, len(pairs)


def test_grid_beyond_the_outer_level_runs_a_separate_injectivity_search(monkeypatch):
    grid = _beyond_outer_grid()
    rng = np.random.default_rng(66)
    T = make_composition_operator(unimodular_field(grid, rng), random_annulus_homeo(DEXH, rng))
    counts = {}
    _count_calls(monkeypatch, contspace._Grid, "search", counts)
    sym = recover_weight_and_map(T, DEXH, grid, rng=rng)
    assert counts == {"search": DEXH.levels + 1}
    want, _ = _reference_tree_certificate(DEXH, grid.nodes, sym.point_map.array, grid.cell)
    assert {k: sym.certificate[k] for k in want} == want


def test_collapsed_pairs_counted_across_chunks():
    # angle doubling keeps every circle, so containment and surjectivity
    # hold, but sends each pair of antipodal nodes to one point; the fine
    # grid gives pairs enough for at least three blocks of the count
    grid = DiscGrid.build(DEXH, 512, 1024)
    T = make_composition_operator(
        GridFunction.constant(grid, 1.0), lambda z: np.abs(z) * np.exp(2j * np.angle(z))
    )
    with pytest.raises(NotWeightedComposition) as exc_info:
        recover_weight_and_map(T, DEXH, grid)
    assert exc_info.value.check == "injectivity"
    images = T(GridFunction.coordinate(grid)).array
    want, pair_count = _reference_tree_certificate(DEXH, grid.nodes, images, grid.cell)
    assert pair_count > 2 * contspace._PAIR_CHUNK
    assert want["collapsed_pairs"] > 0
    assert exc_info.value.certificate["collapsed_pairs"] == want["collapsed_pairs"]


# ---------------------------------------------------------------------------
# the grids' image searches against scipy's KD-tree
# ---------------------------------------------------------------------------


def _tree_answers(images, points, r):
    """cKDTree's nearest distances from points and its pairs of images at most r apart."""
    planar = lambda z: np.column_stack([z.real, z.imag])  # noqa: E731
    tree = cKDTree(planar(images))
    dists, _ = tree.query(planar(points), k=1)
    pairs = np.sort(tree.query_pairs(r, output_type="ndarray"), axis=1)
    return dists, set(map(tuple, pairs.tolist()))


def _searched(grid, images, points, r):
    nearest, pairs = grid.search(images)
    found = set()
    for i, j in pairs(r):
        found.update(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    return nearest(points), found


_GRIDS = {"interval": GRID, "disc": DGRID, "beyond": _beyond_outer_grid()}
_IMAGS = [0.0, 1e-16, 1e-3, 0.3]


# the interval cases keep the ids they had when this search was the interval grid's alone
@pytest.mark.parametrize("name, imag", [(g, i) for g in _GRIDS for i in _IMAGS], ids=[
    str(i) if g == "interval" else f"{g}-{i}" for g in _GRIDS for i in _IMAGS
])
def test_interval_search_equals_the_kd_tree(name, imag):
    # real parts on a 1/256 lattice, so images repeat and pairs lie exactly r apart;
    # a third of the points sit on image positions
    rng = np.random.default_rng(69)
    r = 2 / 256
    for n in (1, 2, 7, 300, 4096):
        images = rng.integers(0, 257, n) / 256 + 1j * imag * rng.normal(size=n)
        points = rng.uniform(-0.1, 1.1, 600) + 1j * imag * rng.normal(size=600)
        points[::3] = images[rng.integers(0, n, 200)]
        points[1::3] = points[1::3].real
        want_dists, want_pairs = _tree_answers(images, points, r)
        dists, pairs = _searched(_GRIDS[name], images, points, r)
        assert np.array_equal(dists, want_dists), n
        assert pairs == want_pairs, n
        if imag == 0.0 and n >= 300:
            assert np.any(dists == 0.0) and any(
                abs(images[i] - images[j]) == r for i, j in pairs
            )


@pytest.mark.parametrize("name", _GRIDS)
def test_search_blocks_many_candidates(name):
    # wide imaginary scatter puts thousands of images inside each real-axis window
    rng = np.random.default_rng(70)
    images = rng.uniform(0, 1, 4096) + 0.3j * rng.normal(size=4096)
    points = np.linspace(0, 1, 4096)
    want_dists, want_pairs = _tree_answers(images, points, 0.1)
    dists, pairs = _searched(_GRIDS[name], images, points, 0.1)
    assert np.array_equal(dists, want_dists)
    assert pairs == want_pairs and len(pairs) > contspace._PAIR_CHUNK


@pytest.mark.parametrize("name", _GRIDS)
def test_search_on_bucket_edges_far_out_and_alone_equals_the_kd_tree(name):
    # images and points on the search's bucket edges (multiples of its side from the
    # border's corner), images far outside the domain up to the largest float, and a
    # lone image
    grid, rng = _GRIDS[name], np.random.default_rng(72)
    side = 0.5 * grid.cell * (1 + 1e-9)
    corner = complex(grid.nodes.real.min() - side, np.imag(grid.nodes).min() - side)
    edges = corner + side * (rng.integers(0, 40, (2, 3000)) * [[1], [1j]]).sum(axis=0)
    top = np.finfo(float).max
    far = np.array([1e300, -1e300, 1e300j, -1e300j, top, -top * 1j, 5.0, -7 + 3j, 2e3j])
    points = np.concatenate([edges[:1000] + side * rng.integers(-1, 2, 1000), grid.nodes[::7]])
    planar = lambda z: np.column_stack([z.real, z.imag])  # noqa: E731
    for images in (edges, np.concatenate([edges, far]), far, np.array([0.3 + 0.1j])):
        for r in (0.5 * grid.cell, grid.cell):
            want_dists, _ = cKDTree(planar(images)).query(planar(points), k=1)
            moderate = np.flatnonzero(np.abs(images) < 1e100)  # the tree's pairs overflow
            want_pairs = {tuple(moderate[list(p)])
                          for p in _tree_answers(images[moderate], points, r)[1]}
            dists, pairs = _searched(grid, images, points, r)
            assert np.array_equal(dists, want_dists) and pairs == want_pairs
    assert np.all(np.isinf(_searched(grid, far[:6], points, grid.cell)[0]))


@pytest.mark.parametrize("name", _GRIDS)
def test_search_of_shifted_images_equals_the_kd_tree(name):
    # each image delta cells from its node, on both sides of every half-cell doubling
    # threshold: in a random direction per node, in one random direction for all, and
    # straight up, where every interval node's nearest image lies exactly delta cells off
    grid, rng = _GRIDS[name], np.random.default_rng(73)
    nodes, cell = grid.nodes, grid.cell
    farthest = 0.0
    for delta in (0.49, 0.5, 0.51, 0.99, 1.0, 1.01, 1.99, 2.01):
        for turn in (np.exp(2j * np.pi * rng.uniform(size=nodes.size)),
                     np.exp(2j * np.pi * rng.uniform()), 1j):
            images = nodes + delta * cell * turn
            want_dists, want_pairs = _tree_answers(images, nodes, 0.5 * cell)
            dists, pairs = _searched(grid, images, nodes, 0.5 * cell)
            assert np.array_equal(dists, want_dists) and pairs == want_pairs, (delta, turn)
            farthest = max(farthest, float(np.max(dists)))
    assert farthest > 2.0 * cell  # some point doubled its block twice


def test_default_disc_recovery_scans_few_candidates_per_node(monkeypatch):
    # both searches of a default recovery scan about 10.4 images per node; buckets a
    # cell wide scanned 44.4
    scanned = []
    windows = contspace._windows

    def counted(parts, images, values):
        for block in windows(parts, images, values):
            scanned.append(block[2].size)
            yield block

    monkeypatch.setattr(contspace, "_windows", counted)
    grid = DiscGrid.build(DEXH)
    rng = np.random.default_rng(64)
    T = make_composition_operator(unimodular_field(grid, rng), random_annulus_homeo(DEXH, rng))
    recover_weight_and_map(T, DEXH, grid, rng=rng)
    assert 0 < sum(scanned) <= 12 * grid.nodes.size


@pytest.mark.parametrize("name", ["interval", "disc"])
def test_search_refuses_non_finite_images(name):
    for bad in (np.nan, np.inf, complex(0.2, np.nan)):
        with pytest.raises(ValueError, match="images must be finite"):
            _GRIDS[name].search(np.array([0.1, bad, 0.3]))


def test_interval_recovery_builds_no_tree(monkeypatch):
    # nor does a default disc recovery: both grids search their images in numpy
    counts = {}
    _count_calls(monkeypatch, contspace, "cKDTree", counts)
    rng = np.random.default_rng(71)
    T = make_composition_operator(unimodular_field(GRID, rng), random_interval_homeo(EXH, rng))
    recover_weight_and_map(T, EXH, GRID, rng=rng)
    grid = DiscGrid.build(DEXH)
    T = make_composition_operator(unimodular_field(grid, rng), random_annulus_homeo(DEXH, rng))
    recover_weight_and_map(T, DEXH, grid, rng=rng)
    assert counts == {}


def test_zigzag_collapsed_pairs_match_the_tree():
    rng = np.random.default_rng(68)
    T = make_composition_operator(unimodular_field(GRID, rng), build_zigzag_fold(EXH, GRID))
    with pytest.raises(NotWeightedComposition) as exc_info:
        recover_weight_and_map(T, EXH, GRID, rng=rng)
    h = T(GridFunction.constant(GRID, 1.0)).array
    images = np.conj(h) * T(GridFunction.coordinate(GRID)).array
    want, _ = _reference_tree_certificate(EXH, GRID.nodes, images, GRID.cell)
    cert = exc_info.value.certificate
    assert exc_info.value.check == "injectivity"
    assert {k: cert[k] for k in want} == want
    assert cert["collapsed_pairs"] == 34  # the count of the KD-tree search it replaced


def test_disc_surjectivity_gap_past_the_query_bound_is_exact():
    # halving every radius keeps each level inside itself but leaves the outer
    # rings farther than one cell from any image, past the bounded query
    T = make_composition_operator(GridFunction.constant(DGRID, 1.0), lambda z: 0.5 * z)
    with pytest.raises(NotWeightedComposition) as exc_info:
        recover_weight_and_map(T, DEXH, DGRID)
    cert = exc_info.value.certificate
    assert exc_info.value.check == "surjectivity"
    images = T(GridFunction.coordinate(DGRID)).array
    want, _ = _reference_tree_certificate(DEXH, DGRID.nodes, images, DGRID.cell)
    assert cert["surjectivity_gap"] == want["surjectivity_gap"] > 10 * DGRID.cell
