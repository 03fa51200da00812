"""Grid models of continuous functions on (0,1) and the unit disc.

Compact exhaustions carry the sup seminorms; homeomorphism constructors
build exhaustion-preserving maps (monotone rearrangements on the
interval, radial twists on the disc); the analysis entry points test
operators for isometry, recover the weight and point map of a surjective
isometry, and check the decomposition bound that survives in the
nonsurjective case.

Each exhaustion says how far points lie outside a level (excess); each
grid holds its distinct nodes once as a flat vector (nodes), finds once
per exhaustion the smallest level holding each node (level_of) and builds
the interpolation stencil of a point set (stencil).  The disc grid is
built by rings: the centre once at flat index 0, then ring i from flat
index offsets[i], its angle count growing with its radius up to
angle_count on the outer ring.  Grid function values line up with the
nodes on both domains, so the analysis has no per-domain branches.

Grid surrogates replace the continuum notions: surjectivity means every
target node lies within one grid cell of the image, injectivity means no
two nodes more than two cells apart land within half a cell of each
other, and every comparison carries an interpolation budget derived from
finite-difference Lipschitz estimates of the probes.  Those say nothing
on a grid coarser than the levels, so check_resolution first requires a
cell of at most a quarter of the narrowest band between level boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._frozen import Frozen, Refusal, Report, store

__all__ = [
    "Exhaustion1D",
    "ExhaustionDisc",
    "IntervalGrid",
    "DiscGrid",
    "GridFunction",
    "PiecewiseLinearMap",
    "PiecewiseLinearHomeo",
    "AnnulusHomeo",
    "NotWeightedComposition",
    "check_resolution",
    "sup_seminorm_grid",
    "weighted_composition_grid",
    "make_composition_operator",
    "interpolation_budget",
    "isometry_test_grid",
    "GridIsometryReport",
    "recover_weight_and_map",
    "RecoveredSymbol",
    "decomposition_bound_check",
    "DecompositionReport",
    "build_interval_homeo",
    "random_interval_homeo",
    "build_zigzag_fold",
    "random_annulus_homeo",
    "random_probe",
    "unimodular_field",
]


class NotWeightedComposition(Refusal):
    """Recovery refused: the operator fails the named certificate check."""

    claim = "not a weighted composition at grid scale"


# ---------------------------------------------------------------------------
# exhaustions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Exhaustion1D(Frozen):
    """Nested closed intervals [a_n, b_n] inside (0,1), one row (a_n, b_n) per level.

    a_n strictly decreases and b_n strictly increases with the level, so
    the intervals nest upward; the innermost may be a single point.
    """

    intervals: np.ndarray

    def __post_init__(self):
        (iv,) = store(self, float, intervals=self.intervals)
        if iv.size == 0 or iv.shape[1:] != (2,):
            raise ValueError("need at least one interval")
        a, b = iv.T
        if not 0 < a[0] <= b[0] < 1:
            raise ValueError("innermost interval must satisfy 0 < a <= b < 1")
        if not (np.all(np.diff(a) < 0) and np.all(np.diff(b) > 0) and 0 < a[-1] and b[-1] < 1):
            raise ValueError("intervals must nest strictly and stay inside (0,1)")

    @classmethod
    def default(cls, levels: int = 3):
        a = 1.0 / np.arange(5, 5 + levels)
        return cls(np.column_stack([a, 1.0 - a]))

    @property
    def levels(self) -> int:
        return len(self.intervals)

    @property
    def outer(self):
        return self.intervals[-1]

    def breakpoints(self):
        """All endpoints, ascending, duplicates removed (degenerate core)."""
        return np.unique(self.intervals)

    def excess(self, points, level: int):
        """How far each complex point lies outside [a_level, b_level]."""
        z = np.asarray(points)
        a, b = self.intervals[level]
        return np.maximum(np.maximum(a - z.real, z.real - b), np.abs(z.imag))


@dataclass(frozen=True, eq=False)
class ExhaustionDisc(Frozen):
    """Closed discs of strictly increasing radii inside the unit disc."""

    radii: np.ndarray

    def __post_init__(self):
        (r,) = store(self, float, radii=self.radii)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("need at least one radius")
        if not (r[0] >= 0 and r[-1] < 1 and np.all(np.diff(r) > 0)):
            raise ValueError("radii must be strictly increasing in [0, 1)")

    @classmethod
    def default(cls):
        return cls((0.25, 0.8))

    @property
    def levels(self) -> int:
        return len(self.radii)

    @property
    def outer(self) -> float:
        return float(self.radii[-1])

    def breakpoints(self):
        """Level boundary radii, ascending, with the center 0 first."""
        return np.unique(np.concatenate([[0.0], self.radii]))

    def excess(self, points, level: int):
        """How far each complex point lies outside the disc of radius rho_level."""
        return np.abs(points) - self.radii[level]


# ---------------------------------------------------------------------------
# grids and grid functions
# ---------------------------------------------------------------------------


_EDGE = 1e-12
_PAIR_CHUNK = 1 << 14  # candidates per block of an image search: temporaries that stay in cache
_QUERY_CHUNK = 1 << 13  # points or images an image search buckets at a time


def cKDTree(data):
    """scipy.spatial.cKDTree, imported on first call, unbalanced and uncompacted; no library
    code builds one, for the grids search their images without it (_Grid.search)."""
    from scipy import spatial

    return spatial.cKDTree(data, balanced_tree=False, compact_nodes=False)


def _windows(parts, images, values):
    """Blocks (i, j, d2) over the ranges of parts, array triples (lo, hi, owner), about
    _PAIR_CHUNK candidates a block: image j runs over lo..hi-1 of each range, i is its
    owner and d2 is dx*dx + dy*dy of values[i] - images[j] (inf for an image far out)."""
    lo, hi, owner = map(np.concatenate, zip(*parts))
    keep = hi > lo
    lo, counts, owner = lo[keep], (hi - lo)[keep], owner[keep]
    ends = np.cumsum(counts)
    cuts = np.arange(0, ends[-1:].sum() + _PAIR_CHUNK, _PAIR_CHUNK)
    edges = np.unique(np.searchsorted(ends, cuts, "right"))
    for a, b in zip(edges[:-1], edges[1:]):
        count = counts[a:b]
        j = np.repeat(lo[a:b] - np.cumsum(count) + count, count)
        j += np.arange(j.size)
        i = np.repeat(owner[a:b], count)
        with np.errstate(over="ignore"):
            dxy = (values[i] - images[j]).view(float).reshape(-1, 2)
            np.square(dxy, out=dxy)
        yield i, j, np.add(dxy[:, 0], dxy[:, 1])


class _Grid(Frozen):
    """The level index and the image search, shared by both grids.

    A grid built apart from the same inputs equals the original: the arrays
    derived from them are not compared.  Each grid derives its edges
    once: node k >= 1 meets node partners[e, k - 1] at distance
    lengths[e, k - 1], one row e per kind of edge.
    """

    _level_exh = None  # the exhaustion of the stored _level_index

    def level_of(self, exh):
        """Smallest level of exh holding each node, exh.levels past the outermost.

        Levels nest, so level_of(exh) <= n is exactly excess(nodes, n) <= _EDGE.
        """
        if self._level_exh != exh:
            levels = np.full(self.nodes.size, exh.levels, np.min_scalar_type(exh.levels))
            for n in range(exh.levels - 1, -1, -1):
                levels[exh.excess(self.nodes, n) <= _EDGE] = n
            store(self, copy=None, _level_index=levels)
            object.__setattr__(self, "_level_exh", exh)
        return self._level_index

    def search(self, images):
        """(nearest, pairs) of finite images: nearest(points) gives each point's distance to
        its nearest image, pairs(r) yields blocks (i, j) of the image pairs at most r apart.

        A cell list (Bentley, Weide & Yao 1980): the images are sorted by square buckets a
        hair over half a cell wide, laid on the nodes' bounding box with a border bucket
        round it that takes every image outside.  An image k + 1 buckets off a point's lies
        more than k half-cells from it, so a nearest image within k half-cells in the
        point's (2k + 1)^2 block is exact: k = 1 answers every point whose nearest image
        lies within half a cell, and k doubles for the rest.  An image's pairs lie forward
        of it, in its own row and the rows above, ceil(r / half-cell) buckets out.
        Distances are sqrt(dx*dx + dy*dy), as scipy's cKDTree computes them, so both
        answers equal the tree's bit for bit.
        """
        images = np.asarray(images, complex)
        if not np.all(np.isfinite(images)):
            raise ValueError("images must be finite")
        nodes, count = self.nodes, images.size
        unit = 0.5 * self.cell  # half a cell: most nearest images lie this close
        side = unit * (1 + 1e-9)
        low = (nodes.real.min() - side, np.imag(nodes).min() - side)
        high = (nodes.real.max() + side, np.imag(nodes).max() + side)

        def buckets(z):  # column and row of each point's bucket, clipped into the border
            return [np.floor((np.clip(v, a, b) - a) / side).astype(np.intp)
                    for v, a, b in zip((z.real, z.imag), low, high)]

        width, height = (int(c) + 1 for c in buckets(np.array(complex(*high))))
        widest = max(width, height)  # a block this wide holds every bucket
        keys = np.empty(count, np.min_scalar_type((height + 2) * width))
        for a in range(0, count, _QUERY_CHUNK):
            col, row = buckets(images[a : a + _QUERY_CHUNK])
            keys[a : a + _QUERY_CHUNK] = (row + 1) * width + col  # an empty row pads each end
        order = np.argsort(keys).astype(np.min_scalar_type(count))
        start = np.zeros((height + 2) * width + 1, np.intp)  # each bucket's first sorted image
        np.cumsum(np.bincount(keys, minlength=(height + 2) * width), out=start[1:])
        sorted_images = images[order]

        def span(row, c0, c1):  # sorted images lo..hi-1 fill buckets c0..c1 of row
            base = (np.clip(row, -1, height) + 1) * width  # rows off the table are empty
            return start[base + np.maximum(c0, 0)], start[base + np.minimum(c1, width - 1) + 1]

        def nearest(points):
            points = np.asarray(points, complex)
            best = np.full(points.shape, np.inf)  # squared distances
            for a in range(0, points.size, _QUERY_CHUNK):
                q, out = points[a : a + _QUERY_CHUNK], best[a : a + _QUERY_CHUNK]
                col, row = buckets(q)
                todo, k = np.arange(q.size), 1
                while todo.size:  # doubling k until the best distance is within k half-cells
                    cols, rows = col[todo], row[todo]
                    reach = min(k, height - 1)  # rows any farther off are empty
                    parts = [(*span(rows + dy, cols - k, cols + k), todo)
                             for dy in range(-reach, reach + 1)]
                    for i, _, d2 in _windows(parts, sorted_images, q):
                        np.minimum.at(out, i, d2)
                    todo = todo[out[todo] > np.square(k * unit)] if k < widest else todo[:0]
                    k = min(2 * k, widest)
            return np.sqrt(best)

        def pairs(r):
            k = min(int(np.ceil(r / unit)), widest)
            for a in range(0, count, _QUERY_CHUNK):
                p = np.arange(a, min(a + _QUERY_CHUNK, count))
                col, row = buckets(sorted_images[a : a + _QUERY_CHUNK])
                parts = [(p + 1, span(row, col, col + k)[1], p)]
                rows_up = range(1, min(k, height - 1) + 1)
                parts += [(*span(row + dy, col - k, col + k), p) for dy in rows_up]
                for i, j, d2 in _windows(parts, sorted_images, sorted_images):
                    close = d2 <= r * r
                    yield order[i[close]], order[j[close]]

        return nearest, pairs


@dataclass(frozen=True, eq=False)
class IntervalGrid(_Grid):
    """Sorted sample nodes covering the outermost exhaustion interval (a read-only
    vector); each node's one edge runs to the node before it."""

    nodes: np.ndarray
    partners: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (x,) = store(self, float, nodes=self.nodes)
        if x.ndim != 1 or x.size < 2 or not np.all(np.diff(x) > 0):
            raise ValueError("nodes must be strictly increasing, at least two")
        partners = np.arange(x.size - 1, dtype=np.min_scalar_type(x.size))[None]
        store(self, copy=None, partners=partners, lengths=np.diff(x)[None])

    @classmethod
    def build(cls, exh: Exhaustion1D, count: int = 4096):
        """Equispaced nodes on the outer interval plus every level endpoint."""
        a, b = exh.outer
        base = np.linspace(a, b, count)
        return cls(np.unique(np.concatenate([base, exh.breakpoints()])))

    @property
    def array(self):
        return self.nodes

    @property
    def cell(self) -> float:
        return float(np.max(np.diff(self.nodes)))

    def stencil(self, points):
        """The stencil of points (their real parts): node values -> their linear interpolant."""
        x = np.real(points)
        nodes = self.nodes
        if np.any(x < nodes[0] - _EDGE) or np.any(x > nodes[-1] + _EDGE):
            raise ValueError("interpolation point leaves the grid domain")
        return partial(np.interp, np.clip(x, nodes[0], nodes[-1]), nodes)


@dataclass(frozen=True, eq=False)
class DiscGrid(_Grid):
    """Ring grid: sorted radii (starting at 0); ring i >= 1 holds
    max(8, ceil(angle_count * radii[i] / radii[-1])) equispaced angles, so the
    outer ring holds angle_count and its arc step is the widest (cell).

    radii is read-only; derived once, read-only and not compared are counts
    (angles per ring, 1 at the centre), offsets (each ring's first flat index),
    nodes, the distinct nodes: the centre 0j, then node j of ring i at flat
    index offsets[i] + j, angle 2 pi j / counts[i], and the edges from each
    node to the next on its ring and to the node one ring in nearest in angle
    (ties to the later angle).
    """

    radii: np.ndarray
    angle_count: int = 512
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    partners: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (r,) = store(self, float, radii=self.radii)
        if r.ndim != 1 or r.size < 2 or r[0] != 0.0 or not np.all(np.diff(r) > 0) or r[-1] >= 1:
            raise ValueError("radii must start at 0, increase strictly, stay below 1")
        if self.angle_count < 8:
            raise ValueError("need at least 8 angles")
        counts = np.maximum(8, np.ceil(self.angle_count * (r / r[-1]))).astype(int)
        counts[0] = 1
        offsets = np.cumsum(counts) - counts
        ring = np.repeat(np.arange(r.size), counts)
        j = np.arange(ring.size) - offsets[ring]
        nodes = r[ring] * np.exp(2j * np.pi * j / counts[ring])
        ring, j = ring[1:], j[1:]
        n, m = counts[ring], counts[ring - 1]
        ahead = offsets[ring] + (j + 1) % n
        inward = offsets[ring - 1] + (2 * j * m + n) // (2 * n) % m
        partners = np.stack([ahead, inward]).astype(np.min_scalar_type(nodes.size))
        lengths = np.abs(nodes[1:] - nodes[partners])
        store(self, copy=None, counts=counts, offsets=offsets, nodes=nodes, partners=partners,
              lengths=lengths)

    @classmethod
    def build(cls, exh: ExhaustionDisc, radial_count: int = 256, angle_count: int = 512):
        base = np.linspace(0.0, exh.outer, radial_count)
        return cls(np.unique(np.concatenate([base, exh.radii])), angle_count)

    @property
    def cell(self) -> float:
        dr = float(np.max(np.diff(self.radii)))
        arc = self.radii[-1] * 2.0 * np.pi / self.angle_count
        return max(dr, arc)

    def stencil(self, points):
        """The stencil of points: node values -> their ring interpolant there.

        Linear in angle on the bracketing rings i0 and i0 + 1, each with its own
        count, then linear in r; on i0 = 0 both ring-i0 corners are the centre.
        """
        z = np.asarray(points, dtype=complex)
        r = np.abs(z)
        radii = self.radii
        if np.any(r > radii[-1] + _EDGE):
            raise ValueError("interpolation point leaves the grid domain")
        r = np.minimum(r, radii[-1])
        turn = np.mod(np.angle(z), 2.0 * np.pi) / (2.0 * np.pi)
        i = np.clip(np.searchsorted(radii, r, side="right"), 1, radii.size - 1) - 1
        wi = (r - radii[i]) / (radii[i + 1] - radii[i])
        del r
        corners = []  # (k + j % n, w * (1 - t)) and (k + (j + 1) % n, w * t), built in place
        for w in (1 - wi, wi):  # ring i0 = i, then ring i0 + 1
            n, k = self.counts[i], self.offsets[i]
            t = turn * n
            j = np.floor(t)
            t -= j  # the weight of the corner after angle j
            j = j.astype(int)
            after = j + 1
            after %= n
            after += k
            j %= n
            j += k
            w0 = 1 - t
            w0 *= w
            t *= w
            corners += [(j, w0), (after, t)]
            i += 1
        return lambda v: sum(v[k] * w for k, w in corners)


@dataclass(frozen=True, eq=False)
class GridFunction(Frozen):
    """Complex samples at the nodes of an interval or disc grid.

    values is a read-only vector aligned with grid.nodes; interpolation is
    linear between nodes (on the disc linear in angle on each ring, then in r).
    """

    grid: IntervalGrid | DiscGrid
    values: np.ndarray

    def __post_init__(self):
        (v,) = store(self, complex, values=self.values)
        if v.shape != self.grid.nodes.shape:
            raise ValueError(f"values must have shape {self.grid.nodes.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")

    @property
    def domain(self) -> str:
        return "interval" if isinstance(self.grid, IntervalGrid) else "disc"

    @property
    def array(self):
        return self.values

    @classmethod
    def sample(cls, grid, fn):
        """fn evaluated at the grid nodes."""
        return cls(grid, fn(grid.nodes))

    @classmethod
    def constant(cls, grid, c=1.0):
        return cls.sample(grid, lambda z: np.full(np.shape(z), complex(c)))

    @classmethod
    def coordinate(cls, grid):
        """The identity function: x on the interval, z on the disc."""
        return cls.sample(grid, lambda z: np.asarray(z, dtype=complex))

    def interpolate(self, stencil):
        """Evaluate at the points whose grid.stencil this is (raw points raise TypeError)."""
        return stencil(self.values)

    def lipschitz_estimate(self) -> float:
        """Max finite-difference slope over the grid's edges (modulus of continuity)."""
        v, grid = self.values, self.grid
        gaps = v[grid.partners]
        slopes = np.abs(np.subtract(v[1:], gaps, out=gaps))
        slopes /= grid.lengths
        return float(np.max(slopes))


def check_resolution(grid, exh):
    """Refuse a grid too coarse for its certificates to say anything.

    A grid resolves an exhaustion when its cell is at most a quarter of
    the narrowest band between consecutive level boundaries.
    """
    band = float(np.min(np.diff(exh.breakpoints()), initial=np.inf))
    if grid.cell > 0.25 * band:
        raise ValueError(
            f"grid cell {grid.cell:g} exceeds a quarter of the narrowest "
            f"level band {band:g}; refine the grid"
        )


def sup_seminorm_grid(f: GridFunction, level, exh):
    """Max of |f| over the grid nodes inside each level K_level of 0..exh.levels-1, shaped
    like level: a float scalar for one level, one masked reduction for an array of levels."""
    n = np.asarray(level)
    if not ((n >= 0) & (n < exh.levels)).all():
        raise ValueError(f"level {level} outside 0..{exh.levels - 1}")
    inside = f.grid.level_of(exh) <= n[..., None]
    sups = np.max(np.broadcast_to(np.abs(f.values), inside.shape), -1, where=inside, initial=-np.inf)
    if np.isneginf(sups).any():
        raise ValueError(f"grid does not resolve exhaustion level {n[np.isneginf(sups)].min()}")
    return sups[()]


# ---------------------------------------------------------------------------
# homeomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PiecewiseLinearMap(Frozen):
    """Piecewise-linear map of an interval, not necessarily injective."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        x, y = store(self, float, xs=self.xs, ys=self.ys)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("xs and ys must be finite")
        if x.shape != y.shape or x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
            raise ValueError("breakpoints must be strictly increasing in x")

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearHomeo(PiecewiseLinearMap):
    """Strictly monotone piecewise-linear bijection of an interval.

    orientation records the monotonicity direction.  build_interval_homeo
    makes every level endpoint a breakpoint with its required image, so
    its maps keep the boundary rules (increasing maps fix every level
    endpoint, decreasing maps swap them) by construction.
    """

    orientation: str = "increasing"

    def __post_init__(self):
        super().__post_init__()
        dy = np.diff(self.ys)
        if self.orientation == "increasing":
            ok = np.all(dy > 0)
        elif self.orientation == "decreasing":
            ok = np.all(dy < 0)
        else:
            raise ValueError("orientation must be 'increasing' or 'decreasing'")
        if not ok:
            raise ValueError(f"breakpoint images are not strictly {self.orientation}")


def build_interval_homeo(
    exh: Exhaustion1D, orientation: str = "increasing", controls=()
) -> PiecewiseLinearHomeo:
    """Assemble an exhaustion-preserving interval homeomorphism.

    Mandatory breakpoints send each level endpoint to itself (increasing)
    or to its opposite endpoint (decreasing).  controls is an iterable of
    extra (x, y) pairs strictly inside the bands between consecutive
    endpoints; any pair breaking strict monotonicity is rejected.
    """
    if orientation not in ("increasing", "decreasing"):
        raise ValueError("orientation must be 'increasing' or 'decreasing'")
    ends = exh.intervals.ravel()
    images = ends if orientation == "increasing" else exh.intervals[:, ::-1].ravel()
    pairs = {float(x): float(y) for x, y in zip(ends, images)}
    for x, y in controls:
        x, y = float(x), float(y)
        if x in pairs and pairs[x] != y:
            raise ValueError(f"control at x={x:g} collides with a level endpoint")
        pairs[x] = y
    xs = np.array(sorted(pairs))
    ys = np.array([pairs[x] for x in xs])
    return PiecewiseLinearHomeo(xs, ys, orientation=orientation)


def random_interval_homeo(exh: Exhaustion1D, rng, orientation: str = "increasing"):
    """Random exhaustion-preserving homeomorphism with bounded slopes.

    Each band gets up to two random controls.  Slopes are kept inside
    [0.45, 1.9] so grid-scale surjectivity (one cell) and injectivity
    (half a cell at distance two cells) hold with margin; draws are
    rejected until every band satisfies the bounds.
    """
    base = build_interval_homeo(exh, orientation)
    xs, ys = base.xs, base.ys
    controls = []
    for (x0, x1), (y0, y1) in zip(zip(xs, xs[1:]), zip(ys, ys[1:])):
        m = int(rng.integers(0, 3))
        if m == 0 or x1 - x0 < 1e-9:
            continue
        for _ in range(200):
            cx = np.sort(rng.uniform(x0, x1, size=m))
            cy = y0 + (y1 - y0) * np.sort(rng.uniform(0.05, 0.95, size=m))
            gx = np.diff(np.concatenate([[x0], cx, [x1]]))
            gy = np.diff(np.concatenate([[y0], cy, [y1]]))
            slopes = np.abs(gy) / gx
            if np.all((slopes >= 0.45) & (slopes <= 1.9)) and np.all(np.abs(gx) > 1e-7):
                controls.extend(zip(cx, cy))
                break
    return build_interval_homeo(exh, orientation, controls)


def build_zigzag_fold(exh: Exhaustion1D, grid: IntervalGrid) -> PiecewiseLinearMap:
    """Noninjective fold of the outermost level onto itself.

    Identity up to the second-outermost right endpoint, then a rise of
    slope at most two to the outer right endpoint, then a steep fall back
    to the outer left endpoint.  Every level still maps onto itself, so
    sup seminorms are preserved, but the outer ring is covered twice.
    The rise turns at a grid node at or past the midpoint so the image
    leaves gaps of at most two cells (one cell after halving).
    """
    if exh.levels < 2:
        raise ValueError("fold needs at least two exhaustion levels")
    a_out, b_out = exh.outer
    b_prev = exh.intervals[-2][1]
    mid = 0.5 * (b_prev + b_out)
    nodes = grid.array
    inside = nodes[(nodes >= mid) & (nodes < b_out - 1e-12)]
    if inside.size == 0:
        raise ValueError("grid too coarse to place the fold turn")
    p = float(inside[0])
    return PiecewiseLinearMap((a_out, b_prev, p, b_out), (a_out, b_prev, b_out, a_out))


@dataclass(frozen=True, eq=False)
class AnnulusHomeo(Frozen):
    """Radial twist of the disc: z maps to |z| e^{i(arg z + twist(|z|))}.

    The twist angle is the piecewise-linear profile through the points
    (twist_breaks[k], twist_values[k]), so it is continuous, every circle
    (in particular every exhaustion circle) maps rigidly onto itself, and
    each annulus between consecutive exhaustion radii is preserved.
    """

    twist_breaks: np.ndarray
    twist_values: np.ndarray

    def __post_init__(self):
        r, v = store(self, float, twist_breaks=self.twist_breaks, twist_values=self.twist_values)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ValueError("twist_breaks and twist_values must be finite")
        if r.shape != v.shape or r.ndim != 1 or r.size < 2 or np.any(np.diff(r) <= 0) or r[0] < 0:
            raise ValueError("twist profile needs increasing radii from 0")

    def twist(self, r):
        return np.interp(r, self.twist_breaks, self.twist_values)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        return z * np.exp(1j * self.twist(r))


def random_annulus_homeo(exh: ExhaustionDisc, rng):
    """Random continuous radial twist, gentle enough for the grid checks.

    A twist angle is drawn at every level boundary radius (breakpoints(),
    which lists the centre 0 once, also when it is an exhaustion radius); each
    annulus wider than 0.05 then gets up to two interior wobbles of at
    most 0.3 rad about the line between its edge angles.  Draws are
    rejected until the twist slope stays below 4 everywhere, which keeps
    the map clear of the grid injectivity threshold.
    """
    bounds = exh.breakpoints()
    for _ in range(500):
        edge_twist = rng.uniform(-0.5, 0.5, size=bounds.size)
        breaks, values = [bounds[0]], [edge_twist[0]]
        for i in range(bounds.size - 1):
            lo, hi = bounds[i], bounds[i + 1]
            if hi - lo > 0.05:
                m = int(rng.integers(0, 3))
                rs = np.sort(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), m))
                for r in rs:
                    base = np.interp(r, [lo, hi], [edge_twist[i], edge_twist[i + 1]])
                    breaks.append(r)
                    values.append(base + rng.uniform(-0.3, 0.3))
            breaks.append(hi)
            values.append(edge_twist[i + 1])
        homeo = AnnulusHomeo(breaks, values)
        slopes = np.abs(np.diff(homeo.twist_values)) / np.diff(homeo.twist_breaks)
        if float(np.max(slopes)) <= 4.0:
            return homeo
    raise RuntimeError("could not draw a twist profile under the slope cap")


# ---------------------------------------------------------------------------
# operators on grid functions
# ---------------------------------------------------------------------------


# (grid, phi, stencil of phi's node images) of the last composition: one slot, so at most
# one stencil outlives a call; it holds phi itself, so a recycled id can never match.
_last_phi_stencil = (None, None, None)


def weighted_composition_grid(h: GridFunction, phi, f: GridFunction) -> GridFunction:
    """Node-wise h(z) * f(phi(z)), interpolating f at the mapped nodes.

    phi may be a PiecewiseLinearMap, an AnnulusHomeo, or any callable on
    node coordinates; it must keep every node inside the grid domain and
    be a pure function of the nodes, because the stencil of its node
    images is reused while the same phi is applied on the same grid.
    Isometry additionally needs |h| = 1, which is not enforced here (the
    non-unimodular case is a deliberate counterexample input).
    """
    global _last_phi_stencil
    if h.grid != f.grid:
        raise ValueError("weight and argument must share one grid")
    grid, last_phi, stencil = _last_phi_stencil
    if last_phi is not phi or grid != f.grid:
        stencil = f.grid.stencil(phi(f.grid.nodes))
        _last_phi_stencil = (f.grid, phi, stencil)
    return GridFunction(f.grid, h.array * f.interpolate(stencil))


def make_composition_operator(h: GridFunction, phi):
    """Close over (h, phi) as an opaque linear map on grid functions."""

    def op(f: GridFunction) -> GridFunction:
        return weighted_composition_grid(h, phi, f)

    return op


def random_probe(grid, rng):
    """Smooth random probe: degree-6 trigonometric (1D) or polynomial (disc)."""
    k = np.arange(7)
    c = (rng.normal(size=7) + 1j * rng.normal(size=7)) / (1.0 + k)
    if isinstance(grid, IntervalGrid):
        return GridFunction.sample(grid, lambda x: np.exp(2j * np.pi * np.outer(x, k)) @ c)
    return GridFunction.sample(grid, lambda z: np.polyval(c[::-1], z))


def unimodular_field(grid, rng):
    """Random unimodular weight exp(i psi), psi a smooth degree-4 real phase."""
    k = np.arange(1, 5)
    a = rng.normal(size=4) * 1.5 / (1.0 + k)
    b = rng.uniform(0, 2 * np.pi, size=4)
    if isinstance(grid, IntervalGrid):
        return GridFunction.sample(
            grid, lambda x: np.exp(1j * (np.cos(2 * np.pi * np.outer(x, k) + b) @ a))
        )

    def phase(z):
        z = np.asarray(z, dtype=complex)
        psi = np.zeros(z.shape, dtype=float)
        for kk, aa, bb in zip(k, a, b):
            psi += aa * np.cos(kk * np.angle(z) + bb) * np.abs(z) ** kk
        return np.exp(1j * psi)

    return GridFunction.sample(grid, phase)


def interpolation_budget(probes, cell: float) -> float:
    """Error allowance for grid comparisons: worst probe slope times cell."""
    return float(np.max([p.lipschitz_estimate() for p in probes]) * cell)


@dataclass(frozen=True)
class GridIsometryReport(Report):
    max_gap: float
    budget: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_gap <= self.tol + self.budget


def isometry_test_grid(T, exh, probes, tol: float = 1e-9) -> GridIsometryReport:
    """Compare level sups of probes and their images, minus the budget."""
    if not probes:
        raise ValueError("probe set must be nonempty")
    check_resolution(probes[0].grid, exh)
    budget = interpolation_budget(probes, probes[0].grid.cell)
    n = np.arange(exh.levels)
    gaps = [abs(sup_seminorm_grid(f, n, exh) - sup_seminorm_grid(T(f), n, exh)) for f in probes]
    return GridIsometryReport(float(np.max(gaps)), budget, tol)


# ---------------------------------------------------------------------------
# recovery of the weight and point map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveredSymbol(Report):
    weight: GridFunction
    point_map: GridFunction
    certificate: dict


def _image_gaps(exh, grid, images):
    """(containment breach, surjectivity gap, the outer level's pairs search when that
    level holds every node, else None); each level's copies and distances are freed
    on return."""
    pts, level_of = grid.nodes, grid.level_of(exh)
    contain = surj = 0.0
    for n in range(exh.levels):
        mask = level_of <= n
        img = images[mask]
        contain = max(contain, float(np.max(exh.excess(img, n))))
        nearest, pairs = grid.search(img)
        surj = max(surj, float(np.max(nearest(pts[mask]))))
    return contain, surj, pairs if np.all(mask) else None


def _collapsed_pairs(blocks, pts, cell):
    """Image pairs, in blocks (i, j), whose nodes lie more than two cells apart."""
    return sum(int(np.sum(np.abs(pts[i] - pts[j]) > 2.0 * cell)) for i, j in blocks)


def recover_weight_and_map(T, exh, grid, tol: float = 1e-9, rng=None) -> RecoveredSymbol:
    """Extract (weight, point map) from a surjective grid isometry.

    The weight is the image of the constant one and must be unimodular at
    every node; the point map is the conjugate weight times the image of
    the coordinate.  The certificate verifies, per level: containment of
    the mapped nodes, grid-surjectivity (every level node within one cell
    of the image), grid-injectivity (no two nodes farther apart than two
    cells land within half a cell), and reconstruction of T on random
    probes within the interpolation budget.  Nearest images and close
    pairs come from grid.search, in numpy.  The first failing check
    raises NotWeightedComposition carrying the partial certificate; a
    check passes only when its value is within its bound, so a NaN value
    refuses.  A grid that fails check_resolution raises ValueError before
    any check.
    """
    check_resolution(grid, exh)
    cert: dict = {}
    within = partial(NotWeightedComposition.unless_within, cert)
    cell = grid.cell
    h = T(GridFunction.constant(grid, 1.0))
    unim_gap = float(np.max(np.abs(np.abs(h.array) - 1.0)))
    within("unimodularity_gap", unim_gap, max(tol, 1e-9),
           "unimodularity", f"|T(1)| deviates from 1 by {unim_gap:g}")

    phi_gf = GridFunction(grid, np.conj(h.array) * T(GridFunction.coordinate(grid)).array)

    # (a) containment and grid-surjectivity, level by level: both recorded, then checked
    worst_contain, worst_surj, pairs = _image_gaps(exh, grid, phi_gf.values)
    cert.update(containment_breach=worst_contain, surjectivity_gap=worst_surj)
    within("containment_breach", worst_contain, 0.5 * cell,
           "containment", f"mapped nodes leave their level by {worst_contain:g}")
    within("surjectivity_gap", worst_surj, cell * (1 + 1e-9),
           "surjectivity", f"image misses level nodes by {worst_surj:g}")

    # (b) grid-injectivity over every node; when the outermost level holds
    # them all, its surjectivity search is already the search of every image
    pairs = grid.search(phi_gf.values)[1] if pairs is None else pairs
    collapsed = _collapsed_pairs(pairs(0.5 * cell), grid.nodes, cell)
    del pairs
    within("collapsed_pairs", collapsed, 0,
           "injectivity", f"{collapsed} distant node pairs land within half a cell")

    # (c) reconstruction on random probes, each drawn, checked and dropped in turn;
    # the budget is interpolation_budget's worst probe slope times cell
    rng = np.random.default_rng(0) if rng is None else rng
    stencil = grid.stencil(phi_gf.array)

    def slope_and_gap(f):
        slope = f.lipschitz_estimate()
        return slope, float(np.max(np.abs(T(f).array - h.array * f.interpolate(stencil))))

    slopes, gaps = zip(*(slope_and_gap(random_probe(grid, rng)) for _ in range(3)))
    recon, budget = float(np.max(gaps)), float(np.max(slopes) * cell)
    cert.update(reconstruction_gap=recon, reconstruction_budget=budget)
    within("reconstruction_gap", recon, budget + tol,
           "reconstruction", f"T deviates from the rebuilt form by {recon:g}")
    return RecoveredSymbol(h, phi_gf, cert)


# ---------------------------------------------------------------------------
# nonsurjective decomposition bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport(Report):
    worst_slack: float
    budget: float
    linearity_gap: float
    dual_norm_max: float

    @property
    def passed(self) -> bool:
        return self.worst_slack >= 0.0


def decomposition_bound_check(T, exh, probes, tol: float = 1e-9) -> DecompositionReport:
    """Certify |conj(h) T(f)| at each node against the containing levels.

    For every probe and node the functional value must stay below the
    smallest seminorm among levels containing the node, plus the
    interpolation budget; worst_slack is the minimum remaining margin
    (nonnegative means the bound holds everywhere).  Linearity of T is
    spot-checked on probe combinations, and the dual-norm estimate records
    the largest ratio |value| / (level seminorm).  A NaN slack fails the
    bound, and a NaN unimodularity or linearity gap raises ValueError.
    """
    if not probes:
        raise ValueError("probe set must be nonempty")
    grid = probes[0].grid
    check_resolution(grid, exh)
    cell = grid.cell
    one = GridFunction.constant(grid, 1.0)
    h = T(one)
    unim = float(np.max(np.abs(np.abs(h.array) - 1.0)))
    if not unim <= 1e-6:
        raise ValueError(f"T(1) must be unimodular (gap {unim:g})")
    budget = interpolation_budget(probes, cell)

    n_levels = exh.levels
    level_of = grid.level_of(exh)
    if np.any(level_of == n_levels):
        raise ValueError("grid extends beyond the outermost level")

    slacks, dual_max = [], 0.0
    hconj = np.conj(h.array)
    for f in probes:
        phi_vals = hconj * T(f).array
        sems = sup_seminorm_grid(f, np.arange(n_levels), exh)
        bound = sems[level_of] + budget
        slack = bound - np.abs(phi_vals)
        slacks.append(np.min(slack))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.abs(phi_vals) / sems[level_of]
        dual_max = max(dual_max, float(np.nanmax(ratios)))

    rng = np.random.default_rng(1)
    lin_gaps = []
    for _ in range(3):
        i, j = rng.integers(0, len(probes), size=2)
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        combo = GridFunction(grid, c1 * probes[i].array + c2 * probes[j].array)
        lhs = T(combo).array
        rhs = c1 * T(probes[i]).array + c2 * T(probes[j]).array
        scale = max(float(np.max(np.abs(rhs))), 1e-300)
        lin_gaps.append(float(np.max(np.abs(lhs - rhs))) / scale)
    lin_gap = float(np.max(lin_gaps))
    if not lin_gap <= max(tol, 1e-9):
        raise ValueError(f"operator is not linear on probes (gap {lin_gap:g})")

    return DecompositionReport(float(np.min(slacks)), float(budget), lin_gap, float(dual_max))
