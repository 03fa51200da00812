"""Weighted seminorm metrics, moment curves, and separation searches.

A point of the model is a finite nondecreasing vector of seminorm values
paired with a summable weight sequence.  The gauge compresses each entry
into [0, 1) and the weights combine them into a translation-style metric;
the moment curve scans that combination across a dilation parameter and
separates any two vectors that differ as atomic measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import Frozen, Report, store
from .gauges import Gauge

__all__ = [
    "WeightSequence",
    "SeminormVector",
    "AtomicMeasure",
    "MetricInterval",
    "SeparationResult",
    "AmbiguousSupport",
    "metric_value",
    "moment_curve",
    "separate",
    "count_support_start",
    "measures_from_vectors",
    "default_t_grid",
]

_SUM_TOL = 1e-12


class AmbiguousSupport(RuntimeError):
    """The asymptotic moment value does not single out one support start."""


@dataclass(frozen=True, eq=False)
class WeightSequence(Frozen):
    """Positive weights r_0..r_N plus the declared mass of the dropped tail.

    The stored weights and the declared tail must sum to 1 within 1e-12;
    the tail stands for every weight beyond the truncation point.
    """

    weights: np.ndarray
    declared_tail: float = 0.0

    def __post_init__(self):
        (w,) = store(self, float, weights=self.weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D sequence")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.declared_tail)):
            raise ValueError("weights and declared_tail must be finite")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if self.declared_tail < 0:
            raise ValueError("declared_tail must be nonnegative")
        total = float(np.sum(w)) + self.declared_tail
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"weights plus tail must sum to 1 (got {total!r})")

    @classmethod
    def uniform(cls, n: int, declared_tail: float = 0.0):
        return cls([(1.0 - declared_tail) / n for _ in range(n)], declared_tail)

    @property
    def array(self):
        return self.weights

    def __len__(self):
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class SeminormVector(Frozen):
    """Finite nondecreasing vector of nonnegative seminorm values."""

    values: np.ndarray

    def __post_init__(self):
        (v,) = store(self, float, values=self.values)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-D sequence")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("values must be finite and nonnegative")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("values must be nondecreasing")

    @property
    def array(self):
        return self.values

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True, eq=False)
class AtomicMeasure(Frozen):
    """Finitely many positive atoms with positive masses, sorted by atom."""

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        a, m = store(self, float, atoms=self.atoms, masses=self.masses)
        if a.shape != m.shape or a.ndim != 1:
            raise ValueError("atoms and masses must be matching 1-D sequences")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(m))):
            raise ValueError("atoms and masses must be finite")
        if a.size and (np.any(a <= 0) or np.any(m <= 0)):
            raise ValueError("atoms and masses must be strictly positive")
        if np.any(np.diff(a) <= 0):
            raise ValueError("atoms must be strictly increasing (merge duplicates)")
        if float(np.sum(m)) > 1.0 + _SUM_TOL:
            raise ValueError("total mass must not exceed 1")

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def approx_equal(self, other: "AtomicMeasure") -> bool:
        """Same atom count, atoms and masses each within 1e-12."""
        if len(self.atoms) != len(other.atoms):
            return False
        return bool(
            np.allclose(self.atoms, other.atoms, rtol=0.0, atol=1e-12)
            and np.allclose(self.masses, other.masses, rtol=0.0, atol=1e-12)
        )


@dataclass(frozen=True)
class MetricInterval:
    """Enclosure for a metric value under an unknown-tail truncation."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.upper < self.lower - 1e-15:
            raise ValueError("upper must not be below lower")


@dataclass(frozen=True)
class SeparationResult(Report):
    verdict: str  # separated | not_separated | inconclusive
    t_star: float | None  # None, and left out of the record, unless separated
    gap: float
    t_grid_size: int  # dilations the search runs over


def metric_value(g: Gauge, weights: WeightSequence, a: SeminormVector) -> MetricInterval:
    """Weighted gauge sum of the vector, as an interval.

    The lower end sums the stored entries, the moment curve at t = 1; the
    upper end adds the declared tail, since each dropped term contributes at
    most its weight.
    """
    lo = moment_curve(g, weights, a, 1.0)
    return MetricInterval(lo, lo + weights.declared_tail)


def moment_curve(g: Gauge, weights: WeightSequence, a: SeminormVector, t):
    """Weighted gauge sum of the dilated vector: sum_n r_n theta(t a_n).

    t may be a scalar or an array, and the result is shaped like t; stored
    entries only (the declared tail's entries are unknown, see metric_value
    for the enclosure).
    """
    _check_lengths(weights, a)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    with np.errstate(over="ignore"):  # t a_n = inf past the float range, where theta is 1
        ta = t[..., None] * a.array
    return g(ta) @ weights.array


def default_t_grid():
    """200 log-spaced dilations on [1e-3, 1e3]."""
    return np.geomspace(1e-3, 1e3, 200)


def separate(
    g: Gauge,
    weights: WeightSequence,
    a: SeminormVector,
    b: SeminormVector,
) -> SeparationResult:
    """Search default_t_grid() for a moment-curve gap between two vectors.

    Vectors must have strictly positive entries.  Equality is decided at
    measure level (coincident atoms merged): equal measures give
    not_separated with a zero gap; otherwise the best grid point wins if
    its gap exceeds 1e-12, else the verdict is inconclusive; a NaN gap
    raises ValueError.  The gauge is not required to be admissible;
    separation is only guaranteed for admissible gauges, but the search
    itself runs for any gauge.
    """
    if np.any(a.array <= 0) or np.any(b.array <= 0):
        raise ValueError("separate requires strictly positive entries")
    t_grid = default_t_grid()
    if measures_from_vectors(weights, a).approx_equal(measures_from_vectors(weights, b)):
        return SeparationResult("not_separated", None, 0.0, t_grid.size)
    gaps = np.abs(moment_curve(g, weights, a, t_grid) - moment_curve(g, weights, b, t_grid))
    k = int(np.argmax(gaps))
    gap = float(gaps[k])  # argmax finds the first NaN gap
    if np.isnan(gap):
        raise ValueError(f"the gauge's moment curves give a NaN gap at t = {t_grid[k]:g}")
    if gap > 1e-12:
        return SeparationResult("separated", float(t_grid[k]), gap, t_grid.size)
    return SeparationResult("inconclusive", None, gap, t_grid.size)


def count_support_start(
    g: Gauge, weights: WeightSequence, a: SeminormVector, t_large: float
) -> int:
    """Index of the first positive entry, read off the asymptotic moment value.

    For large t the moment curve approaches the mass sitting on positive
    entries, so the candidate tail sums S_k = sum_{n>=k} r_n (plus the
    declared tail, whose entries are taken positive when the stored
    maximum is) are matched against the observed value.  The certified
    residual bound large_constant * sum r_n (t a_n)^(-alpha) plus the
    declared tail must stay below half the smallest weight, otherwise
    the match is ambiguous and AmbiguousSupport is raised.
    """
    _check_lengths(weights, a)
    if not t_large > 0:
        raise ValueError("t_large must be positive")
    w = weights.array
    av = a.array
    pos = av > 0
    if np.any(pos) and t_large * float(np.min(av[pos])) <= g.large_threshold:
        raise ValueError(
            "t_large too small: dilated entries must clear the gauge's "
            "large-growth threshold"
        )

    observed = moment_curve(g, weights, a, t_large) + weights.declared_tail
    n = len(w)
    # S_k for k = 0..n; S_n covers the empty stored support
    suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]]) + weights.declared_tail
    best = int(np.argmin(np.abs(suffix - observed)))

    resid = 0.0
    if np.any(pos):
        ta = t_large * av[pos]
        resid = g.large_constant * float(np.sum(w[pos] * ta ** (-g.growth_exponent)))
    budget = resid + weights.declared_tail
    if budget >= 0.5 * float(np.min(w)):
        raise AmbiguousSupport(
            f"residual budget {budget:g} exceeds half the smallest weight"
        )
    if abs(suffix[best] - observed) > budget + 1e-12:
        raise AmbiguousSupport(
            "no candidate tail sum matches the observed value within the budget"
        )
    return best


def measures_from_vectors(weights: WeightSequence, a: SeminormVector) -> AtomicMeasure:
    """Atomic measure sum r_n delta_{a_n}; coincident atoms merged.

    Entries must be strictly positive (zero is not a legal atom).
    """
    _check_lengths(weights, a)
    av = a.array
    if np.any(av <= 0):
        raise ValueError("atoms must be strictly positive")
    atoms, index = np.unique(av, return_inverse=True)
    masses = np.zeros_like(atoms)
    np.add.at(masses, index, weights.array)
    return AtomicMeasure(atoms, masses)


def _check_lengths(weights: WeightSequence, a: SeminormVector):
    if len(weights) != len(a):
        raise ValueError(
            f"weights ({len(weights)}) and vector ({len(a)}) lengths differ"
        )
