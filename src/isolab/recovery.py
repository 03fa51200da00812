"""Recovery of an atomic measure from its kernel-smoothed observation.

The forward model convolves a measure on the log line with the gauge's
shift kernel.  On the Fourier side that is a product, so the measure's
transform is exposed by pointwise division wherever the kernel transform
is safely away from zero; a matrix-pencil estimate on a uniform frequency
run initializes a nonlinear least-squares fit of (position, mass) pairs
carried out in the undivided domain, where the noise floor is flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .gauges import Gauge, shift_kernel, shift_kernel_fourier_grid
from .metric import AtomicMeasure
from .quadrature import QuadratureSpec

__all__ = [
    "LogMeasure",
    "RecoverySpec",
    "RecoveryFailed",
    "RoundtripReport",
    "smoothed_curve",
    "smoothed_curve_samples",
    "fourier_from_samples",
    "measure_transform",
    "recover_measure",
    "roundtrip_check",
]


class RecoveryFailed(RuntimeError):
    """Raised when no fit meets the residual tolerance or the fit is ambiguous.

    Carries the best candidate found (a LogMeasure or None) and its
    relative residual.
    """

    def __init__(self, message, candidate=None, residual=np.inf):
        super().__init__(message)
        self.candidate = candidate
        self.residual = residual


@dataclass(frozen=True)
class LogMeasure:
    """Atoms on the log line (any sign) with positive masses, sorted."""

    positions: tuple
    masses: tuple

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if p.shape != m.shape or p.ndim != 1 or p.size == 0:
            raise ValueError("positions and masses must be matching nonempty 1-D")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(m))):
            raise ValueError("positions and masses must be finite")
        if np.any(np.diff(p) <= 0):
            raise ValueError("positions must be strictly increasing")
        if np.any(m <= 0):
            raise ValueError("masses must be strictly positive")
        if float(np.sum(m)) > 1.0 + 1e-12:
            raise ValueError("total mass must not exceed 1")
        object.__setattr__(self, "positions", tuple(float(x) for x in p))
        object.__setattr__(self, "masses", tuple(float(x) for x in m))

    @classmethod
    def from_atomic(cls, measure: AtomicMeasure) -> "LogMeasure":
        return cls(tuple(np.log(measure.atoms)), measure.masses)

    def to_atomic(self) -> AtomicMeasure:
        return AtomicMeasure(tuple(np.exp(self.positions)), self.masses)

    def shifted(self, c: float) -> "LogMeasure":
        return LogMeasure(tuple(np.asarray(self.positions) + c), self.masses)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))


def _default_freq_grid():
    return np.linspace(-8.0, 8.0, 257)


@dataclass(frozen=True)
class RecoverySpec:
    """Observation window, frequency grid, and division guard.

    shift              positive kernel shift of the observation
    window             observations live on [-window, window]
    frequency_grid     uniform real frequencies for the division step
    regularization_floor  frequencies where |kernel transform| falls below
                       floor * max|kernel transform| are skipped
    sample_count       forward samples drawn by roundtrip_check
    """

    shift: float = 1.0
    window: float = 32.0
    frequency_grid: tuple = field(default_factory=lambda: tuple(_default_freq_grid()))
    regularization_floor: float = 1e-8
    sample_count: int = 4097
    quadrature: QuadratureSpec = field(default_factory=lambda: QuadratureSpec(tol=1e-10))

    def __post_init__(self):
        if not 0 < self.shift < np.inf:
            raise ValueError("shift must be positive and finite")
        if not 0 < self.window < np.inf:
            raise ValueError("window must be positive and finite")
        zs = np.asarray(self.frequency_grid, dtype=float)
        if zs.ndim != 1 or zs.size < 8:
            raise ValueError("frequency_grid must hold at least 8 frequencies")
        if not np.all(np.isfinite(zs)):
            raise ValueError("frequency_grid must be finite")
        if not _uniform_step(zs, "frequency_grid") > 0:
            raise ValueError("frequency_grid must be increasing")
        if not (np.isfinite(self.regularization_floor) and self.regularization_floor >= 0):
            raise ValueError("regularization_floor must be finite and nonnegative")
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")
        object.__setattr__(self, "frequency_grid", tuple(float(z) for z in zs))

    @property
    def freq_array(self):
        return np.asarray(self.frequency_grid)


def smoothed_curve(g: Gauge, measure: LogMeasure, shift: float, s):
    """Kernel-smoothed observation of the measure at offsets s.

    H(s) = sum_j mass_j * G(position_j + s) with G the shift kernel.
    """
    s = np.asarray(s, dtype=float)
    scal = s.ndim == 0
    ss = np.atleast_1d(s)
    pos = np.asarray(measure.positions)
    mass = np.asarray(measure.masses)
    vals = shift_kernel(g, shift, pos[:, None] + ss[None, :]).T @ mass
    return float(vals[0]) if scal else vals


def smoothed_curve_samples(g: Gauge, measure: LogMeasure, spec: RecoverySpec):
    """Uniform forward samples of the smoothed observation over the window."""
    s = np.linspace(-spec.window, spec.window, spec.sample_count)
    return s, smoothed_curve(g, measure, spec.shift, s)


def _uniform_step(x, what):
    """Step of a uniform grid, taken from its ends.

    One difference of rounded neighbours can be off by far more than the
    grid's own rounding, and the chirp-z phases carry that error across
    the whole grid.
    """
    d = np.diff(x)
    if not np.max(np.abs(d - d[0])) <= 1e-9 * abs(d[0]):
        raise ValueError(f"{what} must be uniform")
    return float((x[-1] - x[0]) / (x.size - 1))


def fourier_from_samples(s, values, zs):
    """Trapezoid transform of uniformly sampled data at uniform frequencies zs.

    Returns sum_j w_j values_j e^(-i z_k s_j) with trapezoid weights w_j.
    Spectrally accurate when the data decay inside the window, which the
    growth certificate guarantees for observations of interior measures.
    Computed as a chirp-z transform (Bluestein): with beta = dz*h,
    z_k s_j = z_k s_0 + z_0 (s_j - s_0) + beta*j*k, and
    j*k = (j^2 + k^2 - (k - j)^2)/2 turns the sum into one convolution with
    the chirp e^(i beta p^2 / 2), done by FFT at the next power of two
    >= N + M - 1.
    """
    s = np.asarray(s, dtype=float)
    values = np.asarray(values, dtype=float)
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    if s.ndim != 1 or s.shape != values.shape:
        raise ValueError("s and values must be matching 1-D arrays")
    if s.size < 2:
        raise ValueError("need at least 2 samples")
    if zs.ndim != 1 or zs.size == 0 or not np.all(np.isfinite(zs)):
        raise ValueError("frequencies must be a finite nonempty 1-D array")
    h = _uniform_step(s, "samples")
    dz = _uniform_step(zs, "frequencies") if zs.size > 1 else 0.0
    n, m = s.size, zs.size
    beta = dz * h
    wv = h * values
    wv[[0, -1]] *= 0.5
    a = wv * np.exp(-1j * zs[0] * (s - s[0])) / _chirp(beta, np.arange(n))
    lags = np.arange(1 - n, m)  # k - j; the negative ones wrap to the end
    b = np.zeros(1 << (n + m - 2).bit_length(), dtype=complex)
    b[lags] = _chirp(beta, lags)
    conv = np.fft.ifft(np.fft.fft(a, b.size) * np.fft.fft(b))
    return np.exp(-1j * zs * s[0]) / _chirp(beta, np.arange(m)) * conv[:m]


def _chirp(beta, p):
    """e^(i beta p^2 / 2) for integer p.

    beta is split into a 24-bit head, whose phase head * p^2 / 2 is exact
    for |p| < 23170, and a tail, so only the tail's small phase rounds.
    """
    frac, exp = math.frexp(beta)
    head = math.ldexp(round(math.ldexp(frac, 24)), exp - 24)
    q = 0.5 * p * p
    return np.exp(1j * (head * q)) * np.exp(1j * ((beta - head) * q))


def measure_transform(measure: LogMeasure, zs):
    """Closed-form transform of the measure at the division frequencies.

    Evaluates sum_j mass_j e^{i position_j z}, the factor exposed by
    dividing the observation transform by the kernel transform.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    pos = np.asarray(measure.positions)
    mass = np.asarray(measure.masses)
    return np.exp(1j * zs[:, None] * pos[None, :]) @ mass


def _pencil_estimate(quotient, dz, z0, budget):
    """Matrix-pencil node estimate on a uniform quotient run.

    Returns raw positions; masses are refit later.  The pencil length is
    a third of the run, singular values below 1e-10 of the top one are
    treated as rank noise, and the count is capped by the atom budget.
    """
    n = quotient.size
    L = max(budget + 1, n // 3)
    if n - L < budget:
        raise RecoveryFailed("usable frequency run too short for the atom budget")
    rows = n - L
    idx = np.arange(rows)[:, None] + np.arange(L)[None, :]
    Y = quotient[idx]
    u_svd, sigma, _ = np.linalg.svd(Y[:, :-1], full_matrices=False)
    rank = int(np.sum(sigma > sigma[0] * 1e-10)) if sigma.size else 0
    rank = max(1, min(rank, budget))
    # shift-invariance pencil on the column space
    u1 = u_svd[:, :rank]
    y0 = Y[:, :-1]
    y1 = Y[:, 1:]
    a_mat = np.linalg.lstsq(y0 @ np.conj(y0.T) @ u1, y1 @ np.conj(y0.T) @ u1, rcond=None)[0]
    nodes = np.linalg.eigvals(a_mat)
    nodes = nodes[np.abs(np.log(np.abs(nodes) + 1e-300)) < 0.7]
    if nodes.size == 0:
        raise RecoveryFailed("pencil produced no stable nodes")
    positions = np.angle(nodes) / dz
    return np.sort(positions)


def _fit_residual(params, k, zs, g_hat, h_hat, scale):
    """Stacked re/im residuals of the undivided model."""
    pos = params[:k]
    mass = params[k:]
    model = g_hat * (np.exp(1j * zs[:, None] * pos[None, :]) @ mass)
    diff = (model - h_hat) / scale
    return np.concatenate([diff.real, diff.imag])


def recover_measure(
    g: Gauge,
    s_samples,
    h_samples,
    spec: RecoverySpec,
    atom_budget: int,
    residual_tol: float = 1e-5,
) -> LogMeasure:
    """Reconstruct a log measure from smoothed observation samples.

    Parameters
    ----------
    g : gauge whose shift kernel produced the observation.
    s_samples, h_samples : uniform observation samples.
    spec : window/frequency configuration; spec.shift must match the data.
    atom_budget : maximum number of atoms to fit.
    residual_tol : relative residual above which the fit is rejected.

    Raises RecoveryFailed with the best candidate attached when the fit
    misses the tolerance, when mass sanity fails, or when the frequency
    grid admits an in-window alias of a recovered atom (two measures the
    grid cannot tell apart).
    """
    measure, _ = _recover_with_residual(
        g, s_samples, h_samples, spec, atom_budget, residual_tol
    )
    return measure


def _recover_with_residual(g, s_samples, h_samples, spec, atom_budget, residual_tol):
    if atom_budget < 1:
        raise ValueError("atom_budget must be at least 1")
    zs = spec.freq_array
    dz = float(zs[1] - zs[0])

    g_hat = shift_kernel_fourier_grid(g, spec.shift, zs, spec.quadrature)
    h_hat = fourier_from_samples(s_samples, h_samples, zs)
    scale = float(np.max(np.abs(h_hat)))
    if scale == 0.0:
        raise RecoveryFailed("observation transform is identically zero")

    floor = spec.regularization_floor * float(np.max(np.abs(g_hat)))
    usable = np.abs(g_hat) >= floor
    if not np.any(usable):
        raise RecoveryFailed("kernel transform below the floor everywhere")

    data = (zs[usable], g_hat[usable], h_hat[usable], scale)

    # initialization: pencil on the longest contiguous well-conditioned run
    strong = np.abs(g_hat) >= max(floor, 1e-4 * float(np.max(np.abs(g_hat))))
    run_lo, run_hi = _longest_run(strong)
    quotient = h_hat[run_lo:run_hi] / g_hat[run_lo:run_hi]
    try:
        pos0 = _pencil_estimate(quotient, dz, zs[run_lo], atom_budget)
    except np.linalg.LinAlgError:
        raise RecoveryFailed("pencil initialization failed")
    if np.any(np.abs(pos0) > np.pi / dz):
        raise RecoveryFailed("pencil positions outside the alias-free range")

    # linear mass estimate on the usable frequencies, then trim tiny atoms
    basis = np.exp(1j * zs[usable][:, None] * pos0[None, :]) * g_hat[usable][:, None]
    mass0, *_ = np.linalg.lstsq(
        np.vstack([basis.real, basis.imag]),
        np.concatenate([h_hat[usable].real, h_hat[usable].imag]),
        rcond=None,
    )
    keep = mass0 > 1e-6 * max(1e-12, float(np.max(np.abs(mass0))))
    if not np.any(keep):
        keep = np.abs(mass0) == np.max(np.abs(mass0))
    pos0 = pos0[keep]
    mass0 = np.clip(mass0[keep], 1e-12, 1.0)

    k = pos0.size
    x0 = np.concatenate([pos0, mass0])
    bound_lo = np.concatenate([np.full(k, -spec.window), np.zeros(k)])
    bound_hi = np.concatenate([np.full(k, spec.window), np.ones(k) * 1.5])
    fit = least_squares(
        _fit_residual,
        np.clip(x0, bound_lo + 1e-12, bound_hi - 1e-12),
        args=(k, *data),
        bounds=(bound_lo, bound_hi),
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=400,
    )
    pos = fit.x[:k]
    mass = fit.x[k:]
    order = np.argsort(pos)
    pos, mass = pos[order], mass[order]

    live = mass > 1e-9
    if not np.any(live):
        raise RecoveryFailed("fit drove every mass to zero")
    pos, mass = pos[live], mass[live]
    # merge near-coincident atoms the optimizer may have split
    merged_p, merged_m = [pos[0]], [mass[0]]
    for p, m in zip(pos[1:], mass[1:]):
        if p - merged_p[-1] < 1e-7:
            merged_p[-1] = (merged_p[-1] * merged_m[-1] + p * m) / (merged_m[-1] + m)
            merged_m[-1] += m
        else:
            merged_p.append(p)
            merged_m.append(m)
    pos, mass = np.array(merged_p), np.array(merged_m)

    data_norm = np.sqrt(float(np.sum(np.abs(h_hat[usable] / scale) ** 2)))
    residual = float(
        np.linalg.norm(_fit_residual(np.concatenate([pos, mass]), pos.size, *data))
        / max(1e-300, data_norm)
    )
    candidate = _as_log_measure(pos, mass)

    if residual > residual_tol:
        raise RecoveryFailed(
            f"relative residual {residual:g} exceeds tolerance {residual_tol:g}",
            candidate=candidate,
            residual=residual,
        )
    alias = 2.0 * np.pi / dz
    if np.any(np.abs(pos) + alias <= spec.window):
        raise RecoveryFailed(
            "frequency grid admits an in-window alias; the fit is ambiguous",
            candidate=candidate,
            residual=residual,
        )
    if candidate is None:
        raise RecoveryFailed("fit produced no valid measure", residual=residual)
    return candidate, residual


def _as_log_measure(pos, mass):
    try:
        return LogMeasure(tuple(pos), tuple(np.minimum(mass, 1.0)))
    except ValueError:
        return None


def _longest_run(mask):
    best_lo = best_len = 0
    lo = None
    for i, m in enumerate(np.concatenate([mask, [False]])):
        if m and lo is None:
            lo = i
        elif not m and lo is not None:
            if i - lo > best_len:
                best_lo, best_len = lo, i - lo
            lo = None
    return best_lo, best_lo + best_len


@dataclass(frozen=True)
class RoundtripReport:
    max_position_error: float
    max_mass_error: float
    residual: float
    recovered: LogMeasure | None

    @property
    def passed(self) -> bool:
        return self.max_position_error < 1e-3 and self.max_mass_error < 1e-3

    def as_record(self) -> dict:
        return {
            "max_position_error": self.max_position_error,
            "max_mass_error": self.max_mass_error,
            "residual": self.residual,
            "passed": self.passed,
        }


def roundtrip_check(
    g: Gauge,
    measure: LogMeasure,
    spec: RecoverySpec,
    atom_budget: int,
    residual_tol: float = 1e-5,
) -> RoundtripReport:
    """Sample the forward model and recover; report matched-atom errors.

    Atom counts must agree for the errors to be finite; a count mismatch
    reports infinite error rather than raising, so expected-failure cases
    stay inspectable.  RecoveryFailed propagates its candidate the same way.
    """
    s, h = smoothed_curve_samples(g, measure, spec)
    try:
        rec, residual = _recover_with_residual(g, s, h, spec, atom_budget, residual_tol)
    except RecoveryFailed as err:
        rec = err.candidate
        residual = err.residual
        if rec is None:
            return RoundtripReport(np.inf, np.inf, residual, None)
    true_p = np.asarray(measure.positions)
    true_m = np.asarray(measure.masses)
    got_p = np.asarray(rec.positions)
    got_m = np.asarray(rec.masses)
    if got_p.size != true_p.size:
        return RoundtripReport(np.inf, np.inf, residual, rec)
    return RoundtripReport(
        float(np.max(np.abs(got_p - true_p))),
        float(np.max(np.abs(got_m - true_m))),
        residual,
        rec,
    )
