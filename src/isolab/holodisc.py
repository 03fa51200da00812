"""Truncated Taylor models on the unit disc and their circle seminorms.

Functions are finite Taylor polynomials, each holding its coefficients as
one read-only complex array (a matrix operator likewise holds its matrix);
seminorms are suprema or p-th power means over sampled circles of an
increasing radius family.  The module tests candidate operators for
isometry, characterizes isometries as coefficient rotations, and checks
the three-circle log-convexity inequality with its equality rigidity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import Frozen, Refusal, Report, store

__all__ = [
    "CHARACTERIZE_DEGREE",
    "TaylorFunction",
    "DiscExhaustion",
    "RotationOperator",
    "WeightedCompositionOperator",
    "MatrixOperator",
    "SupFamily",
    "HpFamily",
    "NotCharacterizable",
    "sup_seminorm",
    "hp_seminorm",
    "strict_monotonicity_check",
    "MonotonicityReport",
    "operator_matrix",
    "isometry_test",
    "IsometryReport",
    "characterize_isometry",
    "Characterization",
    "three_circle_check",
    "ThreeCircleReport",
    "random_taylor",
    "standard_probes",
]


class NotCharacterizable(Refusal):
    """The operator fails a characterization step; .circle_samples is the most samples used."""

    claim = "not characterizable"

    def __init__(self, check: str, details: str, certificate: dict, circle_samples: int):
        super().__init__(check, details, certificate)
        self.circle_samples = circle_samples


@dataclass(frozen=True, eq=False)
class TaylorFunction(Frozen):
    """Finite Taylor polynomial with complex coefficients, ascending degree.

    coefficients is a read-only complex copy of the input, exact trailing zeros
    trimmed, so equality compares canonical forms.  Every operation is exact:
    products and compositions keep their full degree, nothing is truncated.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        (c,) = store(self, complex, coefficients=self.coefficients)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        store(self, copy=None, coefficients=c[: np.flatnonzero(c)[-1] + 1] if c.any() else c[:1])

    @classmethod
    def one(cls):
        return cls((1.0,))

    @classmethod
    def identity(cls):
        return cls((0.0, 1.0))

    @classmethod
    def monomial(cls, k: int, c: complex = 1.0):
        if k < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0.0,) * k + (complex(c),))

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    @property
    def array(self):
        return self.coefficients

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in reversed(self.coefficients):
            out = out * z + c
        return out

    def __add__(self, other):
        a, b = self.array, other.array
        n = max(a.size, b.size)
        out = np.zeros(n, dtype=complex)
        out[: a.size] += a
        out[: b.size] += b
        return TaylorFunction(out)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, c):
        return TaylorFunction(self.coefficients * complex(c))

    def __mul__(self, other):
        return TaylorFunction(np.convolve(self.coefficients, other.coefficients))

    def compose(self, inner: "TaylorFunction") -> "TaylorFunction":
        """Polynomial composition self(inner(z)), exact degree growth."""
        out = np.array([self.coefficients[-1]], dtype=complex)
        for c in reversed(self.coefficients[:-1]):
            out = np.convolve(out, inner.array)
            out[0] += c
        return TaylorFunction(out)


def random_taylor(rng, degree: int, min_significant: int = 1) -> TaylorFunction:
    """Random polynomial with unit-scale complex Gaussian coefficients.

    Guarantees at least min_significant coefficients of modulus >= 0.1 so
    rigidity tests stay well-posed; the top coefficient is kept away from
    zero so the degree is exact.
    """
    if min_significant > degree + 1:
        raise ValueError("min_significant exceeds the coefficient count")
    while True:
        c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        if abs(c[-1]) < 0.1:
            c[-1] += 0.2 * (1 + 1j)
        if int(np.sum(np.abs(c) >= 0.1)) >= min_significant:
            return TaylorFunction(c)


# circle samples isometry_test and characterize_isometry start from; they
# raise it to four per degree where a function needs more
_CIRCLE_SAMPLES = 512


@dataclass(frozen=True, eq=False)
class DiscExhaustion(Frozen):
    """Strictly increasing circle radii in (0, 1).

    Default radii follow 1 - 1/n for n = 2, 3, ...; a subfamily is the
    exhaustion of a subset of the radii.
    """

    radii: np.ndarray

    def __post_init__(self):
        (r,) = store(self, float, radii=self.radii)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("radii must be a nonempty 1-D sequence")
        if np.any(r <= 0) or np.any(r >= 1):
            raise ValueError("radii must lie in (0, 1)")
        if np.any(np.diff(r) <= 0):
            raise ValueError("radii must be strictly increasing")

    @classmethod
    def default(cls, count: int = 3):
        return cls(1.0 - 1.0 / np.arange(2, 2 + count))


def _require_samples(f: TaylorFunction, samples: int | None) -> int:
    if samples is None:
        q = 8
        while q < 4 * (f.degree + 1):
            q *= 2
        return max(q, 64)
    if samples < 1:
        raise ValueError("need at least one circle sample")
    if samples < 4 * f.degree:
        raise ValueError("need at least 4 * degree circle samples")
    return samples


def _circle_values(c, radii, q: int):
    """The polynomial with coefficients c on q equispaced points of each circle.

    One row per radius, all from one inverse DFT; needs q > degree, which
    _require_samples guarantees.
    """
    padded = np.zeros((radii.size, q), dtype=complex)
    padded[:, : c.size] = c * np.power.outer(radii, np.arange(c.size))
    return np.fft.ifft(padded) * q


def _circle_max(f: TaylorFunction, radii, q: int):
    """Maximum of |f| on each circle of the radii array, exact to machine precision.

    f is scaled by the power of two 2^-e that puts its largest coefficient
    in [1/2, 1), so |f|^2 cannot overflow or underflow; every step commutes
    with that exact scaling until the maxima are scaled back, where a
    maximum past the float range becomes inf.  One inverse DFT samples
    every circle.  A circle whose scaled |f|^2 samples vary by at
    most 1e-15 max(peak, 1) has constant modulus and keeps its grid peak; on
    the others one Newton loop sharpens every grid local maximum of |f|^2
    inside its bracket [theta - h, theta + h], bisecting whenever a step
    leaves the bracket or the curvature is not negative.  Each circle keeps
    the largest value evaluated on it, its grid peak included, so no result
    falls below its grid maximum.
    """
    with np.errstate(over="ignore"):  # |c| of a finite c can overflow: then use |c/2|, one up
        top = np.abs(f.array).max()
    e = int(np.frexp(top)[1] if top < np.inf else np.frexp(np.abs(f.array / 2).max())[1] + 1)
    c = np.ldexp(f.array.view(float), -e).view(complex)
    vals2 = np.abs(_circle_values(c, radii, q)) ** 2
    best = vals2.max(axis=1)
    flat = best - vals2.min(axis=1) <= 1e-15 * np.maximum(best, 1.0)
    if not flat.all():
        peak = (vals2 >= np.roll(vals2, 1, axis=1)) & (vals2 >= np.roll(vals2, -1, axis=1))
        row, j = np.nonzero(peak & ~flat[:, None])
        m = np.arange(c.size)
        # pos[i, k] = sum_l a[i, l+k] conj(a[i, l]): frequency k of |f|^2 on circle i
        a = c * np.power.outer(radii, m)
        pos = np.array([np.correlate(ai, ai, mode="full")[c.size - 1 :] for ai in a])[row]
        h = 2.0 * np.pi / q
        th = h * j
        lo, hi, prev = th - h, th + h, np.full(j.size, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(80):
                terms = np.exp(1j * th[:, None] * m) * pos
                np.maximum.at(best, row, 2.0 * terms.real.sum(axis=1) - pos[:, 0].real)
                d, dd = -2.0 * (terms.imag @ m), -2.0 * (terms.real @ m**2)
                rising = d >= 0
                lo, hi = np.where(rising, th, lo), np.where(rising, hi, th)
                nxt = th - d / dd
                nxt = np.where((dd < 0) & (lo <= nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
                # a step back to the previous iterate is a two-cycle a few ulps wide: stop there
                moving = (np.abs(nxt - th) >= 1e-15) & (nxt != prev)
                if not moving.any():
                    break
                th, prev, lo, hi, row, pos = (v[moving] for v in (nxt, th, lo, hi, row, pos))
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(best), e)


def _require_radii(radius):
    r = np.asarray(radius, dtype=float)
    if not ((r > 0) & (r < 1)).all():  # a NaN radius fails too
        raise ValueError("radius must lie in (0, 1)")
    return r


def sup_seminorm(f: TaylorFunction, radius, samples: int | None = None):
    """Supremum of |f| on the circle of each radius, shaped like radius.

    A scalar radius gives a float scalar, an array of radii an array of
    maxima, all from one batched circle-maximum call: a grid stage takes
    the max over `samples` equispaced points (at least four per degree);
    the grid's local maxima are then sharpened to the true circle maximum,
    so the result is exact to machine precision and in particular rotation
    invariant.  f is scaled by an exact power of two on the way, so |f|^2
    cannot overflow: sup_seminorm(2^600 f) is 2^600 sup_seminorm(f), not inf.
    """
    r = _require_radii(radius)
    return _circle_max(f, r.ravel(), _require_samples(f, samples)).reshape(r.shape)[()]


def hp_seminorm(f: TaylorFunction, p: float, radius, samples: int | None = None):
    """p-th power circle mean ((1/2pi) integral |f|^p dtheta)^(1/p), shaped like radius.

    A scalar radius gives a float scalar, an array of radii an array of
    means from one inverse DFT.  Equispaced averaging is exact for p = 2
    (Parseval) once the sample count clears the degree, and spectrally
    accurate otherwise.  A mean of |f|^p that is not a finite float, or is
    0 for a nonzero f, cannot be represented at this p and raises
    ValueError naming the first such mean.  The mean is not rescaled into
    range: at exponents that leave it, such as p = 1e4, the samples no
    longer resolve |f|^p.
    """
    r = _require_radii(radius)
    if not p >= 1:
        raise ValueError("p must be at least 1")
    q = _require_samples(f, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(np.abs(_circle_values(f.array, r.ravel(), q)) ** p, axis=1)
    bad = mean[~np.isfinite(mean) | ((mean == 0) & f.array.any())]
    if bad.size:
        raise ValueError(f"p = {p:g} takes the circle mean of |f|^p to {bad[0]:g}, out of float range")
    return (mean ** (1.0 / p)).reshape(r.shape)[()]


@dataclass(frozen=True)
class MonotonicityReport:
    values: tuple
    min_gap: float
    strictly_increasing: bool
    constant: bool


def strict_monotonicity_check(f: TaylorFunction, p: float, radius_grid) -> MonotonicityReport:
    """Check the circle means grow strictly along an increasing radius grid.

    Constant functions report constant=True with a zero gap instead.
    """
    radii = np.asarray(radius_grid, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radius grid must be strictly increasing")
    vals = hp_seminorm(f, p, radii)
    gaps = np.diff(vals)
    min_gap = float(np.min(gaps)) if gaps.size else 0.0
    return MonotonicityReport(tuple(vals.tolist()), min_gap, bool(np.all(gaps > 0)), f.degree == 0)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationOperator:
    """Coefficient rotation c_k -> alpha * beta^k * c_k; both unimodular."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        for name, val in (("alpha", self.alpha), ("beta", self.beta)):
            if abs(abs(complex(val)) - 1.0) > 1e-12:
                raise ValueError(f"{name} must be unimodular")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))

    def apply(self, f: TaylorFunction) -> TaylorFunction:
        k = np.arange(f.degree + 1)
        return TaylorFunction(self.alpha * self.beta**k * f.array)


@dataclass(frozen=True)
class WeightedCompositionOperator:
    """f -> weight * (f o warp) with the warp mapping the disc to itself.

    The self-map condition is enforced at construction by checking the
    warp's modulus on the unit circle (refined maximum, tolerance 1e-9).
    """

    weight: TaylorFunction
    warp: TaylorFunction

    def __post_init__(self):
        m = sup_seminorm(self.warp, 1.0 - 1e-14)
        if m > 1.0 + 1e-9:
            raise ValueError(f"warp must map the disc into itself (max modulus {m:g})")

    def apply(self, f: TaylorFunction) -> TaylorFunction:
        return self.weight * f.compose(self.warp)


@dataclass(frozen=True, eq=False)
class MatrixOperator(Frozen):
    """Linear action on the coefficient vector: a square matrix, held as a read-only copy.

    apply raises OverflowError when an image coefficient leaves the float range.
    """

    matrix: np.ndarray

    def __post_init__(self):
        (m,) = store(self, complex, matrix=self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")

    @property
    def array(self):
        return self.matrix

    def apply(self, f: TaylorFunction) -> TaylorFunction:
        m = self.matrix
        n = m.shape[0]
        c = np.zeros(n, dtype=complex)
        src = f.array
        if src.size > n:
            raise ValueError("function degree exceeds the operator matrix size")
        c[: src.size] = src
        with np.errstate(over="ignore", invalid="ignore"):
            out = m @ c
        try:
            return TaylorFunction(out)
        except ValueError as exc:  # m and f are finite, so a non-finite coefficient overflowed
            raise OverflowError("an image coefficient overflows the float range") from exc


def operator_matrix(op, size: int) -> MatrixOperator:
    """Materialize an operator (an object with .apply) as its matrix on monomials up to size."""
    cols = np.zeros((size, size), dtype=complex)
    for k in range(size):
        out = op.apply(TaylorFunction.monomial(k)).array
        if out.size > size:
            raise ValueError("operator escapes the requested matrix size")
        cols[: out.size, k] = out
    return MatrixOperator(cols)


# ---------------------------------------------------------------------------
# seminorm families and isometry testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupFamily:
    def seminorm(self, f: TaylorFunction, radius, samples: int):
        return sup_seminorm(f, radius, samples=samples)

    label = "sup"


@dataclass(frozen=True)
class HpFamily:
    p: float

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError("p must be at least 1")

    def seminorm(self, f: TaylorFunction, radius, samples: int):
        return hp_seminorm(f, self.p, radius, samples=samples)

    @property
    def label(self):
        return f"hp({self.p:g})"


@dataclass(frozen=True)
class IsometryReport(Report):
    family: str
    max_gap: float
    tol: float
    circle_samples: int  # the most circle samples any probe was compared on

    @property
    def passed(self) -> bool:
        return self.max_gap <= self.tol


def standard_probes(rng, degree: int = 8):
    """The constant, the identity, a square, plus three seeded random draws."""
    fixed = [TaylorFunction.one(), TaylorFunction.identity(), TaylorFunction.monomial(2)]
    return fixed + [random_taylor(rng, degree) for _ in range(3)]


def isometry_test(
    op, family, circles: DiscExhaustion, probes, tol: float = 1e-9
) -> IsometryReport:
    """Compare seminorms of probes and their images under op.apply, every circle in one call."""
    if not probes:
        raise ValueError("probe set must be nonempty")
    gaps, q_max, radii = [], 0, circles.radii
    for f in probes:
        g = op.apply(f)
        q = max(_CIRCLE_SAMPLES, _require_samples(g, None), _require_samples(f, None))
        q_max = max(q_max, q)
        gaps.append(np.abs(family.seminorm(f, radii, q) - family.seminorm(g, radii, q)))
    # np.max keeps a NaN gap, so a comparison that broke down cannot pass
    return IsometryReport(family.label, float(np.max(gaps)), tol, q_max)


# ---------------------------------------------------------------------------
# characterization
# ---------------------------------------------------------------------------

# degree of the random probes characterize_isometry replays the recovered
# rotation on; a matrix operator needs at least CHARACTERIZE_DEGREE + 1 rows
CHARACTERIZE_DEGREE = 8


@dataclass(frozen=True)
class Characterization(Report):
    scalar_alpha: complex
    scalar_beta: complex
    certificate: dict
    circle_samples: int  # the most circle samples a certificate check used

    def as_record(self) -> dict:
        rec = super().as_record()
        return {"alpha": rec.pop("scalar_alpha"), "beta": rec.pop("scalar_beta"), **rec}


def characterize_isometry(op, circles: DiscExhaustion, family, rng=None) -> Characterization:
    """Identify an isometry, an operator with .apply, as a coefficient rotation and certify it.

    Mirrors the uniqueness argument: the image of the constant must have
    a flat mean curve across the first two radii (gap at most 1e-10 times
    max(1, mean)), must be constant as a coefficient vector (relative tail mass
    at most 1e-10), and unimodular (within 1e-10); the normalized image of
    the identity must keep three sampled circles inside themselves (within
    1e-9), be linear (tail at most 1e-10), and have unimodular slope
    (within 1e-10).  The final certificate replays the recovered rotation
    against standard probes of degree CHARACTERIZE_DEGREE (within 1e-9).
    Callers are expected to have run isometry_test; a non-isometry fails
    at whichever step first exposes it.

    Raises NotCharacterizable naming the failing check, with the
    certificate measured so far.  For the p = 2
    mean family the certificate carries no_theorem_guarantee = True: the
    computation runs identically but no uniqueness theorem backs it.
    """
    cert: dict = {}

    def refuse_if(bad, check, details):
        if bad:  # q is read when the check refuses
            raise NotCharacterizable(check, details, cert, q)

    if isinstance(family, HpFamily) and family.p == 2:
        cert["no_theorem_guarantee"] = True

    g0 = op.apply(TaylorFunction.one())
    q = max(_CIRCLE_SAMPLES, _require_samples(g0, None))

    if len(circles.radii) >= 2:
        v1, v2 = (float(v) for v in family.seminorm(g0, circles.radii[:2], q))
        cert["mean_flatness_gap"] = abs(v1 - v2)
        refuse_if(
            abs(v1 - v2) > 1e-10 * max(1.0, v1),
            "mean-flatness", f"means {v1:g} and {v2:g} differ across radii",
        )

    c0 = g0.array
    tail = float(np.linalg.norm(c0[1:])) if c0.size > 1 else 0.0
    scale = max(float(np.abs(c0[0])), 1e-300)
    cert["constancy_tail"] = tail / scale
    refuse_if(
        tail / scale > 1e-10,
        "constancy", f"image of the constant has relative tail mass {tail / scale:g}",
    )
    alpha = complex(c0[0])
    cert["alpha_modulus_gap"] = abs(abs(alpha) - 1.0)
    refuse_if(abs(abs(alpha) - 1.0) > 1e-10, "unimodularity", f"|alpha| = {abs(alpha):g} is not 1")

    phi = op.apply(TaylorFunction.identity()).scaled(np.conj(alpha))
    qphi = max(_CIRCLE_SAMPLES, _require_samples(phi, None))
    q = max(q, qphi)  # the most circle samples used so far
    radii = circles.radii[:3]
    vals = np.abs(_circle_values(phi.array, radii, qphi))
    circle_gap = float(np.max(np.abs(vals - radii[:, None])))
    cert["circle_preservation_gap"] = circle_gap
    refuse_if(circle_gap > 1e-9, "circle-preservation", f"sampled circles move by {circle_gap:g}")

    cphi = phi.array
    linear_tail = float(
        np.sqrt(abs(cphi[0]) ** 2 + float(np.sum(np.abs(cphi[2:]) ** 2)))
    ) if cphi.size > 1 else float(np.abs(cphi[0]))
    cert["linearity_gap"] = linear_tail
    refuse_if(
        cphi.size < 2 or linear_tail > 1e-10,
        "linearity", "normalized identity image is not a multiple of z",
    )
    beta = complex(cphi[1])
    cert["beta_modulus_gap"] = abs(abs(beta) - 1.0)
    refuse_if(abs(abs(beta) - 1.0) > 1e-10, "beta-unimodularity", f"|beta| = {abs(beta):g}")

    rng = np.random.default_rng(0) if rng is None else rng
    model = RotationOperator(alpha / abs(alpha), beta / abs(beta))
    recon_gap = 0.0
    for f in standard_probes(rng, CHARACTERIZE_DEGREE):
        recon_gap = max(recon_gap, float(np.max(np.abs((op.apply(f) - model.apply(f)).array))))
    cert["reconstruction_gap"] = recon_gap
    refuse_if(
        recon_gap > 1e-9, "reconstruction", f"operator deviates from the rotation by {recon_gap:g}"
    )
    return Characterization(alpha, beta, cert, q)


# ---------------------------------------------------------------------------
# three-circle inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeCircleReport(Report):
    lhs: float
    rhs: float
    slack: float
    rigidity_flag: bool
    monomial: bool
    circle_samples: int  # grid samples per circle before the maxima are sharpened


def three_circle_check(f: TaylorFunction, r1: float, r2: float, r3: float) -> ThreeCircleReport:
    """Log-convexity of the circle maxima across three nested radii.

    slack = rhs - lhs of
        log(r3/r1) log M(r2) <= log(r3/r2) log M(r1) + log(r2/r1) log M(r3)
    and is nonnegative up to machine error; the three maxima come from one
    sup_seminorm call, exact to machine precision (see
    sup_seminorm), and the rigidity flag marks equality within 1e-10,
    which happens exactly for monomials.  A maximum that is 0 (the zero
    function), subnormal or infinite has no logarithm accurate to that
    tolerance and raises ValueError.  The report also
    carries the coefficient-level monomial test so callers can compare
    the two.
    """
    if not 0 < r1 < r2 < r3 < 1:
        raise ValueError("radii must satisfy 0 < r1 < r2 < r3 < 1")
    q = _require_samples(f, None)
    ms = sup_seminorm(f, np.array([r1, r2, r3]), q)
    if not np.all((ms >= np.finfo(float).tiny) & (ms <= np.finfo(float).max)):
        raise ValueError(f"circle maxima {ms} must be positive normal floats for accurate logarithms")
    l1, l2, l3 = (np.log(m) for m in ms)
    lhs = float(np.log(r3 / r1) * l2)
    rhs = float(np.log(r3 / r2) * l1 + np.log(r2 / r1) * l3)
    slack = rhs - lhs
    mags = np.abs(f.array)
    monomial = int(np.sum(mags > 1e-10 * float(np.max(mags)))) == 1
    return ThreeCircleReport(lhs, rhs, float(slack), bool(abs(slack) <= 1e-10), monomial, q)
