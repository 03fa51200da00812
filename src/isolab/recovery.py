"""Recovery of an atomic measure from its kernel-smoothed observation.

The forward model convolves a measure on the log line with the gauge's
shift kernel.  On the Fourier side that is a product, so the measure's
transform is exposed by pointwise division wherever the kernel transform
is safely away from zero.  On the longest uniform run of such frequencies
a matrix pencil estimates the atom positions.  Its Hankel matrix has rank
at most the atom budget, so the pencil pays only for that rank: a sketch
of budget + 6 fixed probe columns, one power step and a small SVD give the
column space and the singular values the rank rule reads (a full SVD
would cost as much as the rest of a recovery).  The estimate initializes
a bounded Levenberg-Marquardt fit (More 1978) of (position, mass) pairs
with a closed-form Jacobian, carried out in the undivided domain, where
the noise floor is flat, to one tolerance _FIT_TOL = 1e-15 on step, cost
and gradient, within _MAX_NFEV = 400 residual evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ._frozen import Frozen, Report, store
from .gauges import Gauge, shift_kernel, shift_kernel_fourier_grid

__all__ = [
    "LogMeasure",
    "RecoverySpec",
    "RecoveryFailed",
    "RoundtripReport",
    "smoothed_curve",
    "smoothed_curve_samples",
    "fourier_from_samples",
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


@dataclass(frozen=True, eq=False)
class LogMeasure(Frozen):
    """Atoms on the log line (any sign) with positive masses, sorted."""

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        p, m = store(self, float, positions=self.positions, masses=self.masses)
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

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))


@dataclass(frozen=True)
class RecoverySpec:
    """Frequency grid of the division step, over a fixed observation model.

    frequency_grid is the only setting: uniform real frequencies, at least
    8 of them (default 257 on [-8, 8]).  It stays a tuple, so specs compare
    and hash by it as plain dataclasses do; freq_array holds it once as a
    read-only array.  Every spec shares one observation model:

    shift              kernel shift of the observation, 1
    window             observations live on [-32, 32]
    sample_count       forward samples drawn by roundtrip_check, 4097
    regularization_floor  frequencies where |kernel transform| falls below
                       1e-8 * max|kernel transform| are skipped
    quadrature         tol of kernel transforms without a closed form, 1e-10
    """

    frequency_grid: tuple = field(default_factory=lambda: tuple(np.linspace(-8.0, 8.0, 257)))
    freq_array: np.ndarray = field(init=False, compare=False, repr=False)

    shift = 1.0
    window = 32.0
    regularization_floor = 1e-8
    sample_count = 4097
    quadrature = 1e-10

    def __post_init__(self):
        (zs,) = store(self, float, freq_array=self.frequency_grid)
        if zs.ndim != 1 or zs.size < 8:
            raise ValueError("frequency_grid must hold at least 8 frequencies")
        if not np.all(np.isfinite(zs)):
            raise ValueError("frequency_grid must be finite")
        if not _uniform_step(zs, "frequency_grid") > 0:
            raise ValueError("frequency_grid must be increasing")
        object.__setattr__(self, "frequency_grid", tuple(float(z) for z in zs))


def smoothed_curve(g: Gauge, measure: LogMeasure, shift: float, s):
    """Kernel-smoothed observation of the measure at the 1-D array of offsets s.

    H(s) = sum_j mass_j * G(position_j + s) with G the shift kernel.
    """
    s = np.asarray(s, dtype=float)
    pos, mass = measure.positions, measure.masses
    return shift_kernel(g, shift, pos[:, None] + s[None, :]).T @ mass


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


# The last transform's (s, zs, input phase, input chirp, FFT of the chirp filter, output factor),
# keyed on the nodes themselves: a grid passes as uniform within 1e-9 of its step.
_last_plan = (None,) * 6


def fourier_from_samples(s, values, zs):
    """Trapezoid transform of uniformly sampled data at uniform frequencies zs.

    Returns sum_j w_j values_j e^(-i z_k s_j) with trapezoid weights w_j.
    Spectrally accurate when the data decay inside the window, which the
    growth certificate guarantees for observations of interior measures.
    Computed as a chirp-z transform (Bluestein): with beta = dz*h,
    z_k s_j = z_k s_0 + z_0 (s_j - s_0) + beta*j*k, and
    j*k = (j^2 + k^2 - (k - j)^2)/2 turns the sum into one convolution with
    the chirp e^(i beta p^2 / 2), done by FFT at the next power of two
    >= N + M - 1.  The factors that depend only on s and zs are kept for
    the next call on the same nodes, which does the same operations in order.
    """
    global _last_plan
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
    last_s, last_zs, phase, chirp, fb, out = _last_plan
    if not (np.array_equal(last_s, s) and np.array_equal(last_zs, zs)):
        n, m, beta = s.size, zs.size, dz * h
        phase = np.exp(-1j * zs[0] * (s - s[0]))
        chirp = _chirp(beta, np.arange(n))
        lags = np.arange(1 - n, m)  # k - j; the negative ones wrap to the end
        b = np.zeros(1 << (n + m - 2).bit_length(), dtype=complex)
        b[lags] = _chirp(beta, lags)
        fb = np.fft.fft(b)
        out = np.exp(-1j * zs * s[0]) / _chirp(beta, np.arange(m))
        _last_plan = (s.copy(), zs.copy(), phase, chirp, fb, out)
    wv = h * values
    wv[[0, -1]] *= 0.5
    conv = np.fft.ifft(np.fft.fft(wv * phase / chirp, fb.size) * fb)
    return out * conv[: zs.size]


def _chirp(beta, p):
    """e^(i beta p^2 / 2) for integer p.

    beta is split into a 24-bit head, whose phase head * p^2 / 2 is exact
    for |p| < 23170, and a tail, so only the tail's small phase rounds.
    """
    frac, exp = math.frexp(beta)
    head = math.ldexp(round(math.ldexp(frac, 24)), exp - 24)
    q = 0.5 * p * p
    return np.exp(1j * (head * q)) * np.exp(1j * ((beta - head) * q))


def _pencil_estimate(quotient, dz, budget):
    """Matrix-pencil node estimate on a uniform quotient run.

    Returns the raw positions, sorted, and the pencil rank; masses are
    refit later.  The pencil length is a third of the run.  The Hankel
    matrix y0 has rank at most the atom budget, so its column space comes
    from a sketch instead of a full SVD: y0 times a fixed Gaussian test
    matrix of budget + 6 columns, orthonormalized, then one power step
    y0 (y0^H Q) and a second QR.  The SVD of the small Q^H y0 gives the
    singular values and the top left singular vectors u1 = Q ub.  The
    rank rule reads those singular values: the ones below 1e-10 of the
    top one are rank noise, and the count is capped by the atom budget.
    The nodes are the eigenvalues of the shift-invariance pencil
    y0 g -> y1 g with g = y0^H u1.
    """
    n = quotient.size
    L = max(budget + 1, n // 3)
    if n - L < budget:
        raise RecoveryFailed("usable frequency run too short for the atom budget")
    idx = np.arange(n - L)[:, None] + np.arange(L)[None, :]
    Y = quotient[idx]
    y0, y1 = Y[:, :-1], Y[:, 1:]
    probes = np.random.default_rng(0).standard_normal((L - 1, min(budget + 6, L - 1)))
    q = np.linalg.qr(y0 @ probes)[0]
    q = np.linalg.qr(y0 @ (y0.conj().T @ q))[0]
    ub, sigma, _ = np.linalg.svd(q.conj().T @ y0, full_matrices=False)
    rank = max(1, min(int(np.sum(sigma > sigma[0] * 1e-10)), budget))
    g = y0.conj().T @ (q @ ub[:, :rank])
    nodes = np.linalg.eigvals(np.linalg.lstsq(y0 @ g, y1 @ g, rcond=None)[0])
    nodes = nodes[np.abs(np.log(np.abs(nodes) + 1e-300)) < 0.7]
    if nodes.size == 0:
        raise RecoveryFailed("pencil produced no stable nodes")
    return np.sort(np.angle(nodes) / dz), rank


_FIT_TOL = 1e-15  # the fit's step, cost-reduction and projected-gradient tolerance
_MAX_NFEV = 400  # most residual evaluations of one fit


def least_squares(x0, lo, hi, data):
    """Bounded Levenberg-Marquardt (More 1978) of _fit_residual(x, *data) on the box [lo, hi].

    A step solves [J; sqrt(lam) D] delta = [-r; 0] by least squares, with J
    from _fit_jacobian, D the running maximum of J's column norms and J's
    column zeroed for each parameter at a bound that descent pushes against;
    it is clipped into the box.  lam falls tenfold on an accepted step,
    rises tenfold on a rejected one.  With tol = _FIT_TOL, the fit stops on a
    projected gradient below tol, an accepted step that gains less than tol
    of the cost, a step (accepted or not) that moves x by less than
    tol (tol + |x|), or _MAX_NFEV residual evaluations.  Returns .x and .nfev.
    """
    x = np.clip(x0, lo, hi)
    r = _fit_residual(x, *data)
    cost, nfev, lam, d, jx, done = r @ r, 1, 1e-4, 0.0, None, False
    while nfev < _MAX_NFEV and not done:
        if jx is None:
            jx = _fit_jacobian(x, *data)
            d = np.maximum(d, np.linalg.norm(jx, axis=0))
            grad = jx.T @ r
            if np.max(np.abs(x - np.clip(x - grad, lo, hi))) < _FIT_TOL:
                break
            free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        damped = np.vstack([jx * free, np.diag(np.sqrt(lam) * np.where(d > 0, d, 1.0))])
        step = np.linalg.lstsq(damped, np.concatenate([-r, np.zeros_like(x)]), rcond=None)[0]
        x_new = np.clip(x + step, lo, hi)
        r_new = _fit_residual(x_new, *data)
        nfev, cost_new = nfev + 1, r_new @ r_new
        done = np.linalg.norm(x_new - x) < _FIT_TOL * (_FIT_TOL + np.linalg.norm(x))
        if cost_new < cost:
            done |= cost - cost_new < _FIT_TOL * cost
            x, r, cost, jx, lam = x_new, r_new, cost_new, None, lam / 10
        else:
            lam *= 10
    return SimpleNamespace(x=x, nfev=nfev)


def _fit_residual(params, k, zs, g_hat, h_hat, scale):
    """Stacked re/im residuals of the undivided model."""
    pos, mass = params[:k], params[k:]
    model = g_hat * (np.exp(1j * zs[:, None] * pos[None, :]) @ mass)
    diff = (model - h_hat) / scale
    return np.concatenate([diff.real, diff.imag])


def _fit_jacobian(params, k, zs, g_hat, h_hat, scale):
    """Closed-form Jacobian of _fit_residual, stacked re/im the same way.

    d/dx_j = g_hat i z e^(i z x_j) m_j / scale and d/dm_j = g_hat e^(i z x_j) / scale.
    """
    basis = (g_hat / scale)[:, None] * np.exp(1j * zs[:, None] * params[None, :k])
    jac = np.hstack([1j * zs[:, None] * basis * params[k:], basis])
    return np.vstack([jac.real, jac.imag])


_RESIDUAL_TOL = 1e-5  # largest relative fit residual a recovery accepts and a roundtrip passes


def recover_measure(
    g: Gauge, s_samples, h_samples, spec: RecoverySpec, atom_budget: int
) -> LogMeasure:
    """Reconstruct a log measure from smoothed observation samples.

    Parameters
    ----------
    g : gauge whose shift kernel produced the observation.
    s_samples, h_samples : uniform observation samples.
    spec : frequency grid; the samples follow the spec's observation model.
    atom_budget : maximum number of atoms to fit.

    Raises RecoveryFailed with the best candidate attached when the fit's
    relative residual exceeds 1e-5, when mass sanity fails, or when the frequency
    grid admits an in-window alias of a recovered atom (two measures the
    grid cannot tell apart).
    """
    measure, _ = _recover_with_residual(g, s_samples, h_samples, spec, atom_budget, {})
    return measure


def _recover_with_residual(g, s_samples, h_samples, spec, atom_budget, counts):
    """recover_measure, returning the relative residual too.

    Once the fit has run, counts gets pencil_rank, fit_nfev and
    frequencies_used (those left above the regularization floor), also
    when a later check refuses.
    """
    if atom_budget < 1:
        raise ValueError("atom_budget must be at least 1")
    zs = spec.freq_array
    dz = _uniform_step(zs, "frequency_grid")

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
        pos0, rank = _pencil_estimate(quotient, dz, atom_budget)
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
        np.clip(x0, bound_lo + 1e-12, bound_hi - 1e-12), bound_lo, bound_hi, (k, *data)
    )
    counts.update(pencil_rank=rank, fit_nfev=int(fit.nfev), frequencies_used=int(np.sum(usable)))
    pos, mass = fit.x[:k], fit.x[k:]
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

    if residual > _RESIDUAL_TOL:
        raise RecoveryFailed(
            f"relative residual {residual:g} exceeds tolerance {_RESIDUAL_TOL:g}",
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
        return LogMeasure(pos, np.minimum(mass, 1.0))
    except ValueError:
        return None


def _longest_run(mask):
    """[lo, hi) of the first longest run of True in mask, (0, 0) if there is none."""
    edges = np.flatnonzero(np.diff(np.concatenate([[False], mask, [False]])))
    if edges.size == 0:
        return 0, 0
    i = int(np.argmax(edges[1::2] - edges[::2]))
    return int(edges[2 * i]), int(edges[2 * i + 1])


@dataclass(frozen=True)
class RoundtripReport(Report):
    max_position_error: float
    max_mass_error: float
    residual: float
    recovered: LogMeasure | None
    pencil_rank: int = 0
    fit_nfev: int = 0
    frequencies_used: int = 0
    kernel_transform: str = "closed_form"  # the gauge's mellin, or quadrature

    @property
    def passed(self) -> bool:
        matched = self.max_position_error < 1e-3 and self.max_mass_error < 1e-3
        return matched and self.residual <= _RESIDUAL_TOL


def roundtrip_check(
    g: Gauge, measure: LogMeasure, spec: RecoverySpec, atom_budget: int
) -> RoundtripReport:
    """Sample the forward model and recover; report matched-atom errors.

    Atom counts must agree for the errors to be finite; a count mismatch
    reports infinite error rather than raising, so expected-failure cases
    stay inspectable.  RecoveryFailed propagates its candidate the same way.
    The pencil rank, the fit's evaluations and the frequencies used read 0
    when recovery refused before the fit; kernel_transform names the kernel
    transform on every report.
    """
    s, h = smoothed_curve_samples(g, measure, spec)
    keys = {"kernel_transform": "closed_form" if g.mellin is not None else "quadrature"}
    try:
        rec, residual = _recover_with_residual(g, s, h, spec, atom_budget, keys)
    except RecoveryFailed as err:
        rec = err.candidate
        residual = err.residual
        if rec is None:
            return RoundtripReport(np.inf, np.inf, residual, None, **keys)
    if rec.positions.size != measure.positions.size:
        return RoundtripReport(np.inf, np.inf, residual, rec, **keys)
    return RoundtripReport(
        float(np.max(np.abs(rec.positions - measure.positions))),
        float(np.max(np.abs(rec.masses - measure.masses))),
        residual,
        rec,
        **keys,
    )
