"""Bounded compressing gauges and their integral transforms.

A gauge is an increasing subadditive map theta: [0, inf) -> [0, 1) with
theta(0) = 0 and theta(t) -> 1, carrying a two-sided power growth
certificate: theta(t) <= c_small * t^alpha below a small threshold and
1 - theta(t) <= c_large * t^(-alpha) above a large one.  The certificate
drives every truncation bound in this module, so a panel integral of the
shift kernel comes with an explicit budget; the builtin gauges' kernel
transforms are closed forms.  The dilation (Frullani) integral is the
kernel transform at z = 0, always taken on panels, so it checks the gauge
rather than a closed form.  Every panel integral here (that transform and
the derivative-mass check) runs the one refinement loop,
_integrate_refined, on a composite Gauss-Legendre mesh built below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "Gauge",
    "make_builtin_gauge",
    "clipped_square_gauge",
    "BUILTIN_GAUGE_NAMES",
    "AdmissibilityReport",
    "HypothesisCheck",
    "check_admissibility",
    "frullani_integral",
    "log_gauge",
    "shift_kernel",
    "shift_kernel_fourier_grid",
    "QuadratureError",
    "StripViolationError",
]

BUILTIN_GAUGE_NAMES = ("clip", "rational", "exp")


@dataclass(frozen=True, eq=False)
class Gauge:
    """A candidate compressing gauge with its growth certificate.

    fn and derivative must be vectorized over numpy arrays of t >= 0.
    The derivative only needs to exist almost everywhere; kink points
    list where it may jump so quadrature panels can split there.
    The certificate fields promise
        fn(t)      <= small_constant * t**growth_exponent   for t < small_threshold,
        1 - fn(t)  <= large_constant * t**(-growth_exponent) for t > large_threshold;
    they are promises of the constructor, verified by check_admissibility.
    mellin, when set, is z -> integral over (0, inf) of derivative(t) t^(-iz) dt,
    vectorized over complex z; it gives the shift kernel's transform in
    closed form (see shift_kernel_fourier_grid).
    """

    name: str
    fn: Callable
    derivative: Callable
    growth_exponent: float
    small_threshold: float = 1.0
    large_threshold: float = 1.0
    small_constant: float = 1.0
    large_constant: float = 1.0
    kinks: tuple = ()
    mellin: Callable | None = None

    def __post_init__(self):
        if not self.growth_exponent > 0:
            raise ValueError("growth_exponent must be positive")
        if not (self.small_threshold > 0 and self.large_threshold > 0):
            raise ValueError("certificate thresholds must be positive")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.fn(t)


def make_builtin_gauge(name: str, alpha: float = 1.0) -> Gauge:
    """Construct one of the built-in gauges.

    Parameters
    ----------
    name : 'clip', 'rational' or 'exp'.
        clip(t) = min(1, t); rational(t) = t^alpha / (1 + t^alpha);
        exp(t) = 1 - e^(-t).
    alpha : growth parameter for the rational family (ignored otherwise).

    Notes
    -----
    rational is subadditive only for alpha <= 1; larger alpha still
    carries a valid growth certificate and is accepted here because
    the recovery pipeline needs wide analyticity strips.  Admissibility
    is a property of the gauge, checked by check_admissibility, not by
    this constructor.
    """
    if name == "clip":
        return Gauge(
            name="clip",
            fn=lambda t: np.minimum(1.0, t),
            derivative=lambda t: np.where(t < 1.0, 1.0, 0.0),
            growth_exponent=1.0,
            kinks=(1.0,),
            mellin=lambda z: 1.0 / (1.0 - 1j * z),
        )
    if name == "rational":
        if not (alpha > 0 and np.isfinite(alpha)):
            raise ValueError("alpha must be positive and finite")

        # where t^alpha overflows, theta is 1 and theta' is 0 (the formulas give inf / inf)
        def fn(t, a=alpha):
            with np.errstate(over="ignore", invalid="ignore"):
                ta = np.power(t, a)
                return np.where(np.isinf(ta), 1.0, ta / (1.0 + ta))

        def deriv(t, a=alpha):
            t = np.maximum(t, 1e-300)
            with np.errstate(over="ignore", invalid="ignore"):
                ta = np.power(t, a)
                num = a * ta
                return np.where(np.isinf(num), 0.0, num / (t * (1.0 + ta) ** 2))

        return Gauge(
            name="rational",
            fn=fn,
            derivative=deriv,
            growth_exponent=float(alpha),
            mellin=lambda z, a=alpha: _x_over_sinh(np.pi * z / a),
        )
    if name == "exp":
        # 1 - e^(-t) <= min(t, 1) <= sqrt(t) for every t >= 0, so the small
        # growth certificate holds at any threshold; it is stated at 16.
        # max of sqrt(t)*exp(-t) is ~0.429 at t=1/2, so large_constant 1 works
        # from threshold 1 on.
        return Gauge(
            name="exp",
            fn=lambda t: -np.expm1(-t),
            derivative=lambda t: np.exp(-t),
            growth_exponent=0.5,
            small_threshold=16.0,
            large_threshold=1.0,
            mellin=_exp_mellin,
        )
    raise ValueError(f"unknown builtin gauge {name!r}")


def _exp_mellin(z):
    """Gamma(1 - iz), the exp gauge's Mellin transform; scipy loads on first call."""
    from scipy.special import gamma

    return gamma(1.0 - 1j * z)


def _x_over_sinh(x):
    """x / sinh(x) for complex x: 1 at 0, and no overflow at large |Re x|."""
    x = np.where(x.real < 0, -x, x)  # the function is even
    nz = np.where(x == 0, 1.0, x)
    return np.where(x == 0, 1.0, -2.0 * nz * np.exp(-nz) / np.expm1(-2.0 * nz))


def clipped_square_gauge() -> Gauge:
    """min(1, t^2): valid growth certificate, fails subadditivity.

    Kept as a named specimen so the admissibility checker and the CLI
    have a reproducible counterexample (it breaks at (0.5, 0.5)).
    """
    return Gauge(
        name="clipsq",
        fn=lambda t: np.minimum(1.0, t * t),
        derivative=lambda t: np.where(t < 1.0, 2.0 * t, 0.0),
        growth_exponent=2.0,
        kinks=(1.0,),
        mellin=lambda z: 2.0 / (2.0 - 1j * z),
    )


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    worst_gap: float


@dataclass(frozen=True)
class AdmissibilityReport:
    gauge_name: str
    value_samples: int  # gauge values sampled: 0 and the log-spaced grid
    subadditive_pairs: int  # (s, t) pairs of the subadditivity check
    checks: tuple = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_record(self) -> dict:
        rec = {"gauge": self.gauge_name, "all_pass": self.all_pass}
        rec.update(value_samples=self.value_samples, subadditive_pairs=self.subadditive_pairs)
        for c in self.checks:
            rec[f"{c.name}.passed"] = c.passed
            rec[f"{c.name}.worst_gap"] = c.worst_gap
        return rec


def check_admissibility(g: Gauge) -> AdmissibilityReport:
    """Run every gauge hypothesis on sampled grids and report each one.

    Violations are report entries, never exceptions: the checker is also
    used to demonstrate counterexamples.  The value grid is 0 and 1201
    log-spaced points on [1e-4, 1e4]; pairs for subadditivity come from
    159 points on [1e-4, 50].  Checks, each within 1e-9 unless noted:
    value at zero, bounded range, monotonicity, subadditivity (with 1e-12
    slack), both growth certificate bounds, and consistency of the a.e.
    derivative (its integral over the sampled bulk range, corrected by
    gauge-evaluated endpoint terms, must reconstruct 1 within 1e-6).
    Monotonicity also reads the derivative at that integral's quadrature
    nodes, so a dip between two value samples shows as theta' < 0.  A NaN
    sample makes its check's gap NaN, and the check fails.
    """
    tol = 1e-9
    grid = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 1201)])
    base = np.unique(np.concatenate([np.geomspace(1e-4, 50.0, 96), np.linspace(0.05, 50.0, 64)]))
    ps, pt = (a.ravel() for a in np.meshgrid(base, base))

    vals = g(grid)
    deriv_gap, deriv_low = _derivative_mass_gap(g)
    checks = []

    gap0 = float(abs(g(np.array([0.0]))[0]))
    checks.append(HypothesisCheck("zero_value", gap0 <= tol, gap0))

    range_gap = _worst(vals - 1.0, -vals)
    checks.append(HypothesisCheck("bounded_range", range_gap <= tol, range_gap))

    mono_gap = _worst(-np.diff(vals), -deriv_low)
    checks.append(HypothesisCheck("monotone", mono_gap <= tol, mono_gap))

    sub_gap = _worst(g(ps + pt) - g(ps) - g(pt))
    checks.append(HypothesisCheck("subadditive", sub_gap <= 1e-12, sub_gap))

    small = grid[(grid > 0) & (grid < g.small_threshold)]
    small_gap = _worst(g(small) - g.small_constant * small**g.growth_exponent)
    checks.append(HypothesisCheck("small_growth", small_gap <= tol, small_gap))

    large = grid[grid > g.large_threshold]
    large_gap = _worst((1.0 - g(large)) - g.large_constant * large ** (-g.growth_exponent))
    checks.append(HypothesisCheck("large_growth", large_gap <= tol, large_gap))

    checks.append(HypothesisCheck("derivative_mass", deriv_gap <= 1e-6, deriv_gap))

    return AdmissibilityReport(g.name, int(grid.size), int(ps.size), tuple(checks))


def _worst(*gaps) -> float:
    """The largest gap, at least 0.0 and never -0.0; a NaN gap is the result, so it fails."""
    return float(np.max(np.concatenate([np.ravel(v) for v in gaps]), initial=0.0)) + 0.0


def _derivative_mass_gap(g: Gauge):
    """|integral of the a.e. derivative, endpoint-corrected, minus 1|, and
    the least derivative value met at the quadrature nodes on the way."""
    eps, top = 1e-8, 1e5
    breaks = graded_breaks(
        np.log(eps), np.log(top), interior=[np.log(k) for k in g.kinks], max_step=0.5
    )
    # integrate theta'(e^y) e^y dy over the bulk, in log coordinates; an
    # integral that never stabilizes is an infinite gap, any other error is
    # the derivative's own and propagates
    low = np.inf

    def rule(y, w):
        nonlocal low
        d = g.derivative(np.exp(y))
        low = float(np.minimum(low, np.min(d)))  # a NaN stays
        return np.dot(w, d * np.exp(y))

    try:
        bulk = _integrate_refined(rule, breaks, 1e-9)
    except QuadratureError:
        return np.inf, low
    total = bulk + float(g(np.array([eps]))[0]) + (1.0 - float(g(np.array([top]))[0]))
    return abs(float(total) - 1.0), low


# ---------------------------------------------------------------------------
# the panel mesh and its refinement
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """Panel refinement reached the mesh bound before it converged."""


class StripViolationError(ValueError):
    """A transform was requested outside the certified analyticity strip."""


# largest mesh panel_nodes builds; refinement past it would exhaust memory,
# so this bound is what ends a refinement that never converges
_MAX_NODES = 2**18

# Gauss-Legendre nodes per panel, and the fraction of the decay exponent a
# complex frequency keeps clear of the certified strip's edge
_POINTS = 24
_STRIP_MARGIN = 0.05


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


def _integrate_refined(rule, breaks, budget):
    """Halve every panel of the mesh until two successive passes agree.

    rule(nodes, weights) returns one pass's sum, a scalar or an array; the
    loop stops once max|pass - previous pass| <= budget.  panel_nodes raises
    QuadratureError before the mesh outgrows its node bound, which is how a
    pass sequence that never stabilizes ends.
    """
    prev = None
    while True:
        nodes, weights = panel_nodes(breaks, _POINTS)
        val = rule(nodes, weights)
        if prev is not None and np.max(np.abs(val - prev)) <= budget:
            return val
        prev = val
        breaks = refine_breaks(breaks)


# ---------------------------------------------------------------------------
# the dilation integral and the shift kernel
# ---------------------------------------------------------------------------


def log_gauge(g: Gauge, w):
    """The gauge read in log coordinates: F(w) = theta(e^w)."""
    w = np.asarray(w, dtype=float)
    return g(np.exp(w))


def shift_kernel(g: Gauge, shift: float, y):
    """Increment of the log gauge under a positive shift.

    G(y) = F(shift + y) - F(y); nonnegative for increasing gauges, with
    total integral equal to the shift, and decaying like
    e^(-alpha |y|) at the certified rate on both sides.
    """
    if not shift > 0:
        raise ValueError("shift must be positive")
    y = np.asarray(y, dtype=float)
    return log_gauge(g, y + shift) - log_gauge(g, y)


def _kernel_panels(g: Gauge, shift: float, zs, tol: float):
    """Panel integral of the shift kernel's transform at every z in zs.

    The window [-W_lo, W_hi] cuts each certified tail below tol/4 at the
    decay rate left by the largest |Im z|; the mesh splits at the kinks
    and their shifted copies, its step shrinks with the largest |Re z|, and
    every panel halves until the worst entry moves by at most tol/2.
    """
    a = g.growth_exponent
    decay = a - float(np.max(np.abs(zs.imag)))
    budget = tol / 4.0
    # left tail: G(y) <= c_small * e^(a*(y+shift)) valid while e^(y+shift) < m
    w_lo = max(
        shift - np.log(g.small_threshold),
        (np.log(g.small_constant) + a * shift - np.log(budget * decay)) / decay,
    )
    # right tail: G(y) <= 1 - theta(e^y) <= c_large * e^(-a*y) for e^y > M
    w_hi = max(
        np.log(g.large_threshold),
        (np.log(g.large_constant) - np.log(budget * decay)) / decay,
    )
    w_lo, w_hi = float(w_lo) + 1.0, float(w_hi) + 1.0
    if max(w_lo, w_hi) > 1e5:
        raise StripViolationError(
            "tail bound exceeds the tolerance budget for this gauge/argument"
        )
    zmax = float(np.max(np.abs(zs.real)))
    interior = [p for k in g.kinks for p in (np.log(k), np.log(k) - shift)]
    breaks = graded_breaks(-w_lo, w_hi, interior, max_step=min(0.75, 8.0 / max(1.0, zmax)))

    def rule(nodes, weights):
        kern = shift_kernel(g, shift, nodes) * weights
        vals = np.empty(zs.shape, dtype=complex)
        for start in range(0, zs.size, 64):
            block = zs[start : start + 64]
            vals[start : start + 64] = np.exp(-1j * block[:, None] * nodes[None, :]) @ kern
        return vals

    return _integrate_refined(rule, breaks, tol / 2.0)


def frullani_integral(g: Gauge, rho: float, tol: float = 1e-9) -> float:
    """Numerical value of the dilation integral of the gauge.

    Computes integral over (0, inf) of (theta(rho*x) - theta(x))/x dx,
    which equals log(rho) for every admissible gauge, within tol.  In log
    coordinates the integrand is the shift kernel with shift log(rho), so
    this is the kernel transform at z = 0, integrated on panels even when
    the gauge carries a closed form: head and tail are bounded through the
    growth certificate and the bulk runs on a kink-split refined mesh.
    """
    if not rho > 1:
        raise ValueError("rho must exceed 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    return float(_kernel_panels(g, float(np.log(rho)), np.zeros(1, dtype=complex), tol)[0].real)


def shift_kernel_fourier_grid(g, shift, zs, tol: float = 1e-9):
    """Fourier transform of the shift kernel on a batch of frequencies.

    Returns integral of G(w) e^(-i w z) dw for every z in zs.  Arguments
    may be complex as long as |Im z| stays inside the certified strip
    (growth exponent less a 5% margin).  Since G = F(. + shift) - F,
    the transform is (e^(i shift z) - 1)/(iz) times the Mellin transform of
    the gauge's derivative, with the limit shift * mellin(0) at z = 0; that
    closed form is used whenever the gauge carries one.  Other gauges are
    integrated on panels shared across the batch, refined until the worst
    entry is stable within tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if not np.all(np.isfinite(zs)):
        raise ValueError("frequencies must be finite")
    a = g.growth_exponent
    sigma = float(np.max(np.abs(zs.imag))) if zs.size else 0.0
    if sigma > a * (1.0 - _STRIP_MARGIN) + 1e-15:
        raise StripViolationError(
            f"|Im z| = {sigma:g} leaves the certified strip of half-width "
            f"{a:g} (margin {_STRIP_MARGIN:g})"
        )
    if g.mellin is not None:
        zero = zs == 0
        iz = 1j * np.where(zero, 1.0, zs)
        return np.where(zero, shift, np.expm1(shift * iz) / iz) * g.mellin(zs)
    return _kernel_panels(g, shift, zs, tol)
