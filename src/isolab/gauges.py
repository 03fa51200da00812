"""Bounded compressing gauges and their integral transforms.

A gauge is an increasing subadditive map theta: [0, inf) -> [0, 1) with
theta(0) = 0 and theta(t) -> 1, carrying a two-sided power growth
certificate: theta(t) <= c_small * t^alpha below a small threshold and
1 - theta(t) <= c_large * t^(-alpha) above a large one.  The certificate
drives every truncation bound in this module, so the numbers reported by
frullani_integral and the quadrature path of shift_kernel_fourier come with
an explicit budget; the builtin gauges' kernel transforms are closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gamma

from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    StripViolationError,
    graded_breaks,
    integrate_refined,
    panel_nodes,
    refine_breaks,
)

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
    "shift_kernel_fourier",
    "shift_kernel_fourier_grid",
    "gauge_record",
    "gauge_from_record",
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
    parameter: float | None = None
    mellin: Callable | None = None

    def __post_init__(self):
        if not self.growth_exponent > 0:
            raise ValueError("growth_exponent must be positive")
        if not (self.small_threshold > 0 and self.large_threshold > 0):
            raise ValueError("certificate thresholds must be positive")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.fn(t)


def _certified_small_threshold(fn, exponent, constant, cap=16.0):
    """Largest threshold in (0, cap] where fn(t) <= constant*t**exponent.

    Bisection on a dense-grid predicate, as promised for the exp gauge.
    """

    def holds(m):
        t = np.linspace(m / 2048.0, m, 2048)
        return bool(np.all(fn(t) <= constant * t**exponent + 1e-15))

    if not holds(cap / 1024.0):
        raise ValueError("certificate fails even near zero")
    if holds(cap):
        return cap
    lo, hi = cap / 1024.0, cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


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

        def fn(t, a=alpha):
            ta = np.power(t, a)
            return ta / (1.0 + ta)

        def deriv(t, a=alpha):
            t = np.maximum(t, 1e-300)
            ta = np.power(t, a)
            return a * ta / (t * (1.0 + ta) ** 2)

        return Gauge(
            name="rational",
            fn=fn,
            derivative=deriv,
            growth_exponent=float(alpha),
            parameter=float(alpha),
            mellin=lambda z, a=alpha: _x_over_sinh(np.pi * z / a),
        )
    if name == "exp":
        fn = lambda t: -np.expm1(-t)
        m = _certified_small_threshold(fn, 0.5, 1.0)
        # max of sqrt(t)*exp(-t) is ~0.429 at t=1/2, so large_constant 1 works
        # from threshold 1 on.
        return Gauge(
            name="exp",
            fn=fn,
            derivative=lambda t: np.exp(-t),
            growth_exponent=0.5,
            small_threshold=m,
            large_threshold=1.0,
            mellin=lambda z: gamma(1.0 - 1j * z),
        )
    raise ValueError(f"unknown builtin gauge {name!r}")


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


def gauge_record(g: Gauge) -> dict:
    """Small serializable record for a gauge definition."""
    rec = {
        "name": g.name,
        "growth_exponent": g.growth_exponent,
        "small_threshold": g.small_threshold,
        "large_threshold": g.large_threshold,
        "small_constant": g.small_constant,
        "large_constant": g.large_constant,
    }
    if g.parameter is not None:
        rec["parameter"] = g.parameter
    return rec


def gauge_from_record(rec: dict) -> Gauge:
    name = rec["name"]
    if name == "rational":
        return make_builtin_gauge("rational", alpha=rec.get("parameter", 1.0))
    if name in ("clip", "exp"):
        return make_builtin_gauge(name)
    if name == "clipsq":
        return clipped_square_gauge()
    raise ValueError(f"cannot rebuild gauge {name!r} from a record")


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    worst_gap: float
    where: tuple = ()


@dataclass(frozen=True)
class AdmissibilityReport:
    gauge_name: str
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
        for c in self.checks:
            rec[f"{c.name}.passed"] = c.passed
            rec[f"{c.name}.worst_gap"] = c.worst_gap
        return rec


def _default_grid():
    return np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 1201)])


def _default_pair_grid():
    base = np.concatenate([np.geomspace(1e-4, 50.0, 96), np.linspace(0.05, 50.0, 64)])
    base = np.unique(base)
    s, t = np.meshgrid(base, base)
    return s.ravel(), t.ravel()


def check_admissibility(
    g: Gauge, grid=None, pair_grid=None, tol: float = 1e-9
) -> AdmissibilityReport:
    """Run every gauge hypothesis on sampled grids and report each one.

    Violations are report entries, never exceptions: the checker is also
    used to demonstrate counterexamples.  Checks: value at zero, bounded
    range, monotonicity, subadditivity (with +1e-12 slack), both growth
    certificate bounds, and consistency of the a.e. derivative (its
    integral over the sampled bulk range, corrected by gauge-evaluated
    endpoint terms, must reconstruct 1).
    """
    grid = _default_grid() if grid is None else np.asarray(grid, dtype=float)
    if pair_grid is None:
        ps, pt = _default_pair_grid()
    else:
        ps, pt = (np.asarray(a, dtype=float) for a in pair_grid)

    vals = g(grid)
    checks = []

    gap0 = float(abs(g(np.array([0.0]))[0]))
    checks.append(HypothesisCheck("zero_value", gap0 <= tol, gap0))

    range_gap = float(max(np.max(vals) - 1.0, np.max(-vals), 0.0))
    checks.append(HypothesisCheck("bounded_range", range_gap <= tol, range_gap))

    order = np.argsort(grid)
    diffs = np.diff(vals[order])
    mono_gap = float(max(0.0, -np.min(diffs))) if len(diffs) else 0.0
    checks.append(HypothesisCheck("monotone", mono_gap <= tol, mono_gap))

    sub = g(ps + pt) - g(ps) - g(pt)
    k = int(np.argmax(sub))
    sub_gap = float(max(0.0, sub[k]))
    checks.append(
        HypothesisCheck(
            "subadditive",
            sub_gap <= 1e-12,
            sub_gap,
            (float(ps[k]), float(pt[k])),
        )
    )

    small = grid[(grid > 0) & (grid < g.small_threshold)]
    if small.size:
        sg = g(small) - g.small_constant * small**g.growth_exponent
        i = int(np.argmax(sg))
        small_gap = float(max(0.0, sg[i]))
        where = (float(small[i]),)
    else:
        small_gap, where = 0.0, ()
    checks.append(HypothesisCheck("small_growth", small_gap <= tol, small_gap, where))

    large = grid[grid > g.large_threshold]
    if large.size:
        lg = (1.0 - g(large)) - g.large_constant * large ** (-g.growth_exponent)
        i = int(np.argmax(lg))
        large_gap = float(max(0.0, lg[i]))
        where = (float(large[i]),)
    else:
        large_gap, where = 0.0, ()
    checks.append(HypothesisCheck("large_growth", large_gap <= tol, large_gap, where))

    deriv_gap = _derivative_mass_gap(g)
    checks.append(HypothesisCheck("derivative_mass", deriv_gap <= 1e-6, deriv_gap))

    return AdmissibilityReport(gauge_name=g.name, checks=tuple(checks))


def _derivative_mass_gap(g: Gauge) -> float:
    """|integral of the a.e. derivative, endpoint-corrected, minus 1|."""
    eps, top = 1e-8, 1e5
    breaks = graded_breaks(
        np.log(eps), np.log(top), interior=[np.log(k) for k in g.kinks], max_step=0.5
    )
    spec = QuadratureSpec(tol=1e-9, max_doublings=16)
    # integrate theta'(e^y) e^y dy over the bulk, in log coordinates
    try:
        bulk = integrate_refined(
            lambda y: g.derivative(np.exp(y)) * np.exp(y), breaks, spec, budget=1e-9
        )
    except Exception:
        return np.inf
    total = bulk + float(g(np.array([eps]))[0]) + (1.0 - float(g(np.array([top]))[0]))
    return abs(float(total) - 1.0)


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


def _kernel_cutoffs(g: Gauge, shift: float, decay: float, budget: float):
    """Window [-W_lo, W_hi] outside which the kernel tail is below budget."""
    a = g.growth_exponent
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
    return w_lo, w_hi


def _kernel_breaks(g: Gauge, shift: float, w_lo: float, w_hi: float, max_step: float):
    interior = []
    for k in g.kinks:
        interior.append(np.log(k))
        interior.append(np.log(k) - shift)
    return graded_breaks(-w_lo, w_hi, interior=interior, max_step=max_step)


def frullani_integral(g: Gauge, rho: float, quadrature: QuadratureSpec | None = None) -> float:
    """Numerical value of the dilation integral of the gauge.

    Computes integral over (0, inf) of (theta(rho*x) - theta(x))/x dx,
    which equals log(rho) for every admissible gauge.  Evaluated in log
    coordinates, where the integrand is the shift kernel with shift
    log(rho); head and tail are bounded through the growth certificate
    and the bulk is integrated on a kink-split refined panel mesh.
    """
    if not rho > 1:
        raise ValueError("rho must exceed 1")
    spec = quadrature or QuadratureSpec()
    u = float(np.log(rho))
    a = g.growth_exponent
    w_lo, w_hi = _kernel_cutoffs(g, u, a, spec.tol / 4.0)
    breaks = _kernel_breaks(g, u, w_lo, w_hi, max_step=1.0)
    val = integrate_refined(
        lambda y: shift_kernel(g, u, y), breaks, spec, budget=spec.tol / 2.0
    )
    return float(val)


def shift_kernel_fourier_grid(g, shift, zs, quadrature: QuadratureSpec | None = None):
    """Fourier transform of the shift kernel on a batch of frequencies.

    Returns integral of G(w) e^(-i w z) dw for every z in zs.  Arguments
    may be complex as long as |Im z| stays inside the certified strip
    (growth exponent minus the spec's margin).  Since G = F(. + shift) - F,
    the transform is (e^(i shift z) - 1)/(iz) times the Mellin transform of
    the gauge's derivative, with the limit shift * mellin(0) at z = 0; that
    closed form is used whenever the gauge carries one.  Other gauges are
    integrated on panels shared across the batch, refined until the worst
    entry is stable.
    """
    spec = quadrature or QuadratureSpec()
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if not np.all(np.isfinite(zs)):
        raise ValueError("frequencies must be finite")
    a = g.growth_exponent
    sigma = float(np.max(np.abs(zs.imag))) if zs.size else 0.0
    if sigma > a * (1.0 - spec.strip_margin) + 1e-15:
        raise StripViolationError(
            f"|Im z| = {sigma:g} leaves the certified strip of half-width "
            f"{a:g} (margin {spec.strip_margin:g})"
        )
    if g.mellin is not None:
        zero = zs == 0
        iz = 1j * np.where(zero, 1.0, zs)
        return np.where(zero, shift, np.expm1(shift * iz) / iz) * g.mellin(zs)

    decay = a - sigma
    w_lo, w_hi = _kernel_cutoffs(g, shift, decay, spec.tol / 4.0)
    zmax = float(np.max(np.abs(zs.real))) if zs.size else 0.0
    step = min(0.75, 8.0 / max(1.0, zmax))
    breaks = _kernel_breaks(g, shift, w_lo, w_hi, max_step=step)

    prev = None
    for _ in range(spec.max_doublings + 1):
        nodes, weights = panel_nodes(breaks, spec.points)
        kern = shift_kernel(g, shift, nodes) * weights
        vals = np.empty(zs.shape, dtype=complex)
        for start in range(0, zs.size, 64):
            block = zs[start : start + 64]
            vals[start : start + 64] = np.exp(
                -1j * block[:, None] * nodes[None, :]
            ) @ kern
        if prev is not None and float(np.max(np.abs(vals - prev))) <= spec.tol / 2.0:
            return vals
        prev = vals
        breaks = refine_breaks(breaks)
    raise QuadratureError("kernel transform did not stabilize within the budget")


def shift_kernel_fourier(g, shift, z, quadrature: QuadratureSpec | None = None) -> complex:
    """Single-frequency convenience wrapper around the batched transform."""
    return complex(shift_kernel_fourier_grid(g, shift, [z], quadrature)[0])
