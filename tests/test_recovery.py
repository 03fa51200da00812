import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from isolab import recovery
from isolab.gauges import BUILTIN_GAUGE_NAMES, make_builtin_gauge
from isolab.recovery import (
    LogMeasure,
    RecoveryFailed,
    RecoverySpec,
    RoundtripReport,
    fourier_from_samples,
    recover_measure,
    roundtrip_check,
    smoothed_curve,
    smoothed_curve_samples,
)

RAT2 = make_builtin_gauge("rational", alpha=2.0)
EXP = make_builtin_gauge("exp")
CLIP = make_builtin_gauge("clip")


def test_log_measure_validation():
    with pytest.raises(ValueError):
        LogMeasure((1.0, 1.0), (0.3, 0.3))  # not strictly increasing
    with pytest.raises(ValueError):
        LogMeasure((0.0,), (0.0,))  # zero mass
    with pytest.raises(ValueError):
        LogMeasure((0.0, 1.0), (0.8, 0.5))  # mass above 1
    with pytest.raises(ValueError):
        LogMeasure((0.0, np.inf), (0.3, 0.3))  # inf position
    with pytest.raises(ValueError):
        LogMeasure((0.0,), (np.nan,))  # nan mass


def test_smoothed_curve_shift_equivariance():
    # translating the measure translates the observation the other way
    nu = LogMeasure((-0.5, 1.25), (0.3, 0.4))
    s = np.linspace(-4, 4, 33)
    d = 0.7
    a = smoothed_curve(EXP, LogMeasure(tuple(np.add(nu.positions, d)), nu.masses), 1.0, s)
    b = smoothed_curve(EXP, nu, 1.0, s + d)
    assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_smoothed_curve_superposition():
    nu1 = LogMeasure((0.0,), (0.25,))
    nu2 = LogMeasure((1.0,), (0.5,))
    both = LogMeasure((0.0, 1.0), (0.25, 0.5))
    s = np.linspace(-3, 3, 17)
    a = smoothed_curve(RAT2, nu1, 1.0, s) + smoothed_curve(RAT2, nu2, 1.0, s)
    b = smoothed_curve(RAT2, both, 1.0, s)
    assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_observation_transform_at_zero_is_mass_times_shift():
    # H-hat(0) = integral of the observation = total mass times the shift
    spec = RecoverySpec()
    nu = LogMeasure((-1.0, 0.5), (0.35, 0.45))
    s, h = smoothed_curve_samples(EXP, nu, spec)
    got = fourier_from_samples(s, h, np.array([0.0]))[0]
    want = nu.total_mass * spec.shift
    assert abs(got - want) < 1e-6
    assert abs(got.imag) < 1e-9


def test_fourier_from_samples_rejects_nonuniform():
    s = np.array([0.0, 1.0, 2.5])
    with pytest.raises(ValueError):
        fourier_from_samples(s, np.ones_like(s), np.array([0.0]))
    s = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="uniform"):
        fourier_from_samples(s, np.ones_like(s), np.array([0.0, 1.0, 2.5]))
    for few in ([], [0.5]):
        with pytest.raises(ValueError, match="2 samples"):
            fourier_from_samples(np.array(few), np.ones(len(few)), np.array([0.0]))
    for zs in ([0.0, np.nan], [np.inf], []):
        with pytest.raises(ValueError, match="finite nonempty"):
            fourier_from_samples(s, np.ones_like(s), np.array(zs))


def _direct_trapezoid(s, values, zs):
    h = (s[-1] - s[0]) / (s.size - 1)
    w = np.full(s.size, h)
    w[[0, -1]] = 0.5 * h
    return np.exp(-1j * zs[:, None] * s[None, :]) @ (w * values)


_RNG = np.random.default_rng(20)
_S_DEFAULT, _H_DEFAULT = smoothed_curve_samples(
    EXP, LogMeasure((-1.0, 0.5), (0.35, 0.45)), RecoverySpec()
)


@pytest.mark.parametrize(
    "s, values, zs",
    [
        (_S_DEFAULT, _H_DEFAULT, RecoverySpec().freq_array),
        (np.linspace(-6.0, 9.0, 1001), _RNG.standard_normal(1001), np.linspace(-3.3, 5.1, 77)),
        (_S_DEFAULT, _H_DEFAULT, np.array([0.7])),
        (np.linspace(-30.0, -12.5, 4992), _RNG.standard_normal(4992), np.linspace(-20.0, -2.0, 18)),
    ],
    ids=["default", "odd", "single", "negative"],
)
def test_fourier_from_samples_matches_direct_sum(s, values, zs):
    got = fourier_from_samples(s, values, zs)
    want = _direct_trapezoid(s, values, zs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _chirp_z_formula(s, values, zs):
    """fourier_from_samples without its plan: every factor rebuilt from the nodes."""
    h = (s[-1] - s[0]) / (s.size - 1)
    dz = (zs[-1] - zs[0]) / (zs.size - 1) if zs.size > 1 else 0.0
    n, m = s.size, zs.size
    beta = dz * h
    wv = h * values
    wv[[0, -1]] *= 0.5
    a = wv * np.exp(-1j * zs[0] * (s - s[0])) / recovery._chirp(beta, np.arange(n))
    lags = np.arange(1 - n, m)
    b = np.zeros(1 << (n + m - 2).bit_length(), dtype=complex)
    b[lags] = recovery._chirp(beta, lags)
    conv = np.fft.ifft(np.fft.fft(a, b.size) * np.fft.fft(b))
    return np.exp(-1j * zs * s[0]) / recovery._chirp(beta, np.arange(m)) * conv[:m]


_ALIAS_ZS = RecoverySpec(frequency_grid=tuple(np.linspace(-8.0, 8.0, 17))).freq_array


def test_fourier_plan_is_bit_identical_to_the_formula(monkeypatch):
    grids = [RecoverySpec().freq_array, _ALIAS_ZS]
    fresh = []
    for zs in grids:
        monkeypatch.setattr(recovery, "_last_plan", (None,) * 6)  # as in a fresh process
        fresh.append(fourier_from_samples(_S_DEFAULT, _H_DEFAULT, zs))
        assert np.array_equal(fresh[-1], _chirp_z_formula(_S_DEFAULT, _H_DEFAULT, zs))
    # alternating the two grids rebuilds or reuses the plan; the bits never move
    for i in range(5):
        got = fourier_from_samples(_S_DEFAULT, _H_DEFAULT, grids[i % 2])
        assert np.array_equal(got, fresh[i % 2])


def test_fourier_plan_keys_on_every_node():
    zs = RecoverySpec().freq_array
    s = _S_DEFAULT.copy()
    fourier_from_samples(s, _H_DEFAULT, zs)
    # same count, step and start, one interior node moved in the caller's own
    # array: still uniform within 1e-9, so the plan must be rebuilt from it
    s[1000] += 1e-12
    want = _chirp_z_formula(s, _H_DEFAULT, zs)
    assert not np.array_equal(want, _chirp_z_formula(_S_DEFAULT, _H_DEFAULT, zs))
    assert np.array_equal(fourier_from_samples(s, _H_DEFAULT, zs), want)


def test_fourier_plan_keeps_the_input_checks_and_inputs():
    zs = RecoverySpec().freq_array
    values = _H_DEFAULT.copy()
    s = _S_DEFAULT.copy()
    fourier_from_samples(s, values, zs)
    fourier_from_samples(s, values, zs)  # a cache hit
    assert np.array_equal(values, _H_DEFAULT) and np.array_equal(s, _S_DEFAULT)
    bent = s.copy()
    bent[2000] += 1e-3
    with pytest.raises(ValueError, match="uniform"):
        fourier_from_samples(bent, values, zs)
    with pytest.raises(ValueError, match="finite nonempty"):
        fourier_from_samples(s, values, np.where(np.arange(zs.size) == 7, np.nan, zs))
    assert np.array_equal(fourier_from_samples(s, values, zs), _chirp_z_formula(s, values, zs))


# ---------------------------------------------------------------------------
# recovery roundtrips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [RAT2, EXP, CLIP], ids=["rational2", "exp", "clip"])
def test_roundtrip_single_atom(g):
    rep = roundtrip_check(g, LogMeasure((0.4,), (0.6,)), RecoverySpec(), 1)
    assert rep.max_position_error < 1e-6
    assert rep.max_mass_error < 1e-6
    assert rep.passed


@pytest.mark.parametrize("g", [RAT2, EXP, CLIP], ids=["rational2", "exp", "clip"])
def test_roundtrip_two_atoms(g):
    nu = LogMeasure((-1.2, 0.3), (0.35, 0.4))
    rep = roundtrip_check(g, nu, RecoverySpec(), 2)
    assert rep.max_position_error < 1e-3
    assert rep.max_mass_error < 1e-3


def test_roundtrip_names_the_kernel_transform():
    rep = roundtrip_check(RAT2, LogMeasure((0.4,), (0.6,)), RecoverySpec(), 1)
    assert rep.as_record()["kernel_transform"] == "closed_form"
    quad = dataclasses.replace(RAT2, mellin=None)
    rep = roundtrip_check(quad, LogMeasure((0.4,), (0.6,)), RecoverySpec(), 1)
    assert rep.as_record()["kernel_transform"] == "quadrature"
    assert rep.passed


def test_roundtrip_three_atoms_exp():
    nu = LogMeasure((-2.0, 0.0, 1.5), (0.2, 0.3, 0.25))
    rep = roundtrip_check(EXP, nu, RecoverySpec(), 3)
    assert rep.max_position_error < 1e-3
    assert rep.max_mass_error < 1e-3


def test_roundtrip_generous_budget_still_exact():
    # extra allowed atoms must be trimmed, not invented
    nu = LogMeasure((0.0, 1.1), (0.3, 0.45))
    rep = roundtrip_check(EXP, nu, RecoverySpec(), 5)
    assert rep.recovered is not None
    assert len(rep.recovered.positions) == 2
    assert rep.max_position_error < 1e-3


def test_roundtrip_close_atoms_fails_honestly():
    # spacing far below the window resolution: the recovered count differs
    # and the report carries infinite error rather than a fake match
    nu = LogMeasure((0.0, 2e-4), (0.3, 0.3))
    rep = roundtrip_check(EXP, nu, RecoverySpec(), 2)
    assert not rep.passed
    assert np.isinf(rep.max_position_error)
    assert rep.as_record()["failed_check"] == "atom-count"
    assert rep.certificate == {}  # recovery itself did not refuse


def test_roundtrip_report_counts_what_it_used():
    rep = roundtrip_check(EXP, LogMeasure((-0.7, 0.9), (0.3, 0.4)), RecoverySpec(), 4)
    rec = rep.as_record()
    assert (rec["pencil_rank"], rec["frequencies_used"]) == (2, 257)
    assert 1 <= rec["fit_nfev"] <= 400
    assert "failed_check" not in rec and not any(k.startswith("certificate.") for k in rec)
    # refused at the pencil: the frequencies were counted, the pencil and fit never ran
    rep = roundtrip_check(EXP, LogMeasure((0.0,), (0.5,)), RecoverySpec(), 200)
    assert rep.recovered is None
    assert (rep.pencil_rank, rep.fit_nfev, rep.frequencies_used) == (0, 0, 257)
    assert (rep.failed_check, rep.certificate["atom_budget"]) == ("pencil", 200)
    # refused after the fit: the counts stay
    spec = RecoverySpec(frequency_grid=tuple(np.linspace(-8.0, 8.0, 17)))
    rep = roundtrip_check(EXP, LogMeasure((0.5,), (0.5,)), spec, 1)
    assert (rep.pencil_rank, rep.frequencies_used) == (1, 17)
    assert rep.fit_nfev >= 1
    assert rep.failed_check == "alias" and not rep.passed
    assert rep.certificate["residual"] == rep.residual <= recovery._RESIDUAL_TOL


def test_roundtrip_passes_only_within_the_residual_tolerance():
    # matched atoms alone do not pass: the residual must meet recover_measure's tolerance
    tol = recovery._RESIDUAL_TOL
    assert RoundtripReport(0.0, 0.0, tol, None).passed
    assert not RoundtripReport(0.0, 0.0, np.nextafter(tol, 1.0), None).passed
    assert not RoundtripReport(0.0, 0.0, np.nan, None).passed


def test_recover_measure_direct_api():
    spec = RecoverySpec()
    nu = LogMeasure((-0.8, 1.0), (0.3, 0.5))
    s, h = smoothed_curve_samples(RAT2, nu, spec)
    got = recover_measure(RAT2, s, h, spec, 2)
    assert np.max(np.abs(np.array(got.positions) - nu.positions)) < 1e-3
    assert np.max(np.abs(np.array(got.masses) - nu.masses)) < 1e-3


def test_recover_measure_alias_ambiguity():
    # 17 frequencies spaced 1.0 apart alias every 2*pi in position, far
    # inside the 32-wide window: the grid cannot tell the atom from its
    # alias, so the contract demands refusal
    spec = RecoverySpec(frequency_grid=tuple(np.linspace(-8.0, 8.0, 17)))
    nu = LogMeasure((0.5,), (0.5,))
    s, h = smoothed_curve_samples(EXP, nu, spec)
    with pytest.raises(RecoveryFailed, match="alias") as exc_info:
        recover_measure(EXP, s, h, spec, 1)
    assert exc_info.value.check == "alias"
    assert exc_info.value.candidate is not None


def test_recover_measure_residual_rejection_keeps_candidate():
    spec = RecoverySpec()
    nu = LogMeasure((0.0,), (0.5,))
    s, h = smoothed_curve_samples(EXP, nu, spec)
    h = h + 1e-3 * np.sin(5.0 * s)  # corrupt beyond the 1e-5 residual tolerance
    with pytest.raises(RecoveryFailed) as exc_info:
        recover_measure(EXP, s, h, spec, 1)
    err = exc_info.value
    assert err.check == "residual"
    assert err.certificate["residual"] > 1e-5
    assert err.candidate is not None


def _refusal_cases():
    """case -> (the refusing check, the key of its value, gauge, measure sampled,
    map applied to the samples, spec, atom budget)."""
    alias_spec = RecoverySpec(frequency_grid=tuple(np.linspace(-8.0, 8.0, 17)))
    nan_kernel = dataclasses.replace(EXP, mellin=lambda z: np.full(np.shape(z), np.nan))
    nu, spec = LogMeasure((0.0,), (0.5,)), RecoverySpec()
    return {
        "frequency-floor": ("frequency-floor", "kernel_peak", nan_kernel, nu, None, spec, 1),
        "pencil-budget": ("pencil", "atom_budget", EXP, nu, None, spec, 200),
        "pencil-nodes": ("pencil", "unstable_nodes", EXP, nu, lambda s, h: 0.0 * h, spec, 1),
        "mass": ("mass", "dropped_atoms", EXP, nu, lambda s, h: -h, spec, 1),
        "residual": (
            "residual", "residual", EXP, nu, lambda s, h: h + 1e-3 * np.sin(5.0 * s), spec, 1,
        ),
        "alias": ("alias", "alias_room", EXP, nu, None, alias_spec, 1),
        # twice a valid measure: each mass stays below 1, their total does not
        "invalid-measure": (
            "invalid-measure", "total_mass", RAT2, LogMeasure((-1.0, 1.0), (0.3, 0.35)),
            lambda s, h: 2.0 * h, spec, 2,
        ),
    }


@pytest.mark.parametrize("case", list(_refusal_cases()))
def test_each_recovery_refusal_names_its_check_and_value(case):
    check, key, g, nu, corrupt, spec, budget = _refusal_cases()[case]
    s, h = smoothed_curve_samples(g, nu, spec)
    with pytest.raises(RecoveryFailed) as exc_info:
        recover_measure(g, s, h if corrupt is None else corrupt(s, h), spec, budget)
    err = exc_info.value
    assert err.check == check and str(err).startswith(f"measure not recovered: {check} (")
    assert list(err.certificate)[-1] == key  # the refusing check's value is recorded last


@pytest.mark.parametrize(
    "corrupt", [lambda h: np.where(np.arange(h.size) == 2000, np.inf, h), lambda h: h * 1e200],
    ids=["inf_sample", "huge_samples"],
)
def test_recover_measure_refuses_impossible_samples_up_front(corrupt):
    # no observation is non-finite or reaches 1 in modulus: |G| < 1 and the mass is at most 1
    spec = RecoverySpec()
    s, h = smoothed_curve_samples(EXP, LogMeasure((0.0,), (0.5,)), spec)
    with pytest.raises(ValueError, match="h_samples"):
        recover_measure(EXP, s, corrupt(h), spec, 1)


def test_recovery_spec_stores_its_frequency_array_once():
    spec, again = RecoverySpec(), RecoverySpec()
    assert spec == again and hash(spec) == hash(again)
    zs = spec.freq_array
    assert spec.freq_array is zs and not zs.flags.writeable
    assert np.array_equal(zs, spec.frequency_grid) and isinstance(spec.frequency_grid, tuple)


def test_recovery_spec_has_one_setting():
    assert [f.name for f in dataclasses.fields(RecoverySpec) if f.init] == ["frequency_grid"]
    spec = RecoverySpec()
    assert (spec.shift, spec.window, spec.sample_count) == (1.0, 32.0, 4097)
    with pytest.raises(TypeError):
        RecoverySpec(shift=2.0)


def test_recovery_spec_validation():
    with pytest.raises(ValueError):
        RecoverySpec(frequency_grid=(0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.5))
    grid = np.linspace(-8.0, 8.0, 17)
    for bad in (np.nan, np.inf, -np.inf):
        for i in (0, 5, 16):
            with pytest.raises(ValueError, match="finite"):
                RecoverySpec(frequency_grid=tuple(np.where(np.arange(17) == i, bad, grid)))


# ---------------------------------------------------------------------------
# fast paths against slower references
# ---------------------------------------------------------------------------


def _svd_pencil(quotient, dz, budget):
    """The pencil from a full SVD of the Hankel matrix, products as written."""
    n = quotient.size
    L = max(budget + 1, n // 3)
    Y = quotient[np.arange(n - L)[:, None] + np.arange(L)[None, :]]
    y0, y1 = Y[:, :-1], Y[:, 1:]
    u, sigma, _ = np.linalg.svd(y0, full_matrices=False)
    rank = max(1, min(int(np.sum(sigma > sigma[0] * 1e-10)), budget))
    u1 = u[:, :rank]
    a_mat = np.linalg.lstsq(y0 @ np.conj(y0.T) @ u1, y1 @ np.conj(y0.T) @ u1, rcond=None)[0]
    nodes = np.linalg.eigvals(a_mat)
    nodes = nodes[np.abs(np.log(np.abs(nodes) + 1e-300)) < 0.7]
    return np.sort(np.angle(nodes) / dz), rank


def _seeded_measure(k):
    rng = np.random.default_rng(100 + k)
    while True:
        p = np.sort(rng.uniform(-2.5, 2.5, size=k))
        if k == 1 or np.min(np.diff(p)) >= 1.0:
            return LogMeasure(tuple(p), tuple(rng.uniform(0.15, 0.3, size=k)))


@pytest.mark.parametrize("name", BUILTIN_GAUGE_NAMES)
def test_sketch_pencil_matches_full_svd(name, monkeypatch):
    g = make_builtin_gauge(name, alpha=2.0)
    spec = RecoverySpec()
    sketch = recovery._pencil_estimate
    for k in (1, 2, 3):
        nu = _seeded_measure(k)
        for budget in range(k, k + 4):
            pencils = []

            def both(quotient, dz, b):
                pencils.append((sketch(quotient, dz, b), _svd_pencil(quotient, dz, b)))
                return pencils[-1][0]

            monkeypatch.setattr(recovery, "_pencil_estimate", both)
            fast = roundtrip_check(g, nu, spec, budget)
            monkeypatch.setattr(recovery, "_pencil_estimate", _svd_pencil)
            slow = roundtrip_check(g, nu, spec, budget)
            [((pos, rank), (ref_pos, ref_rank))] = pencils
            assert rank == ref_rank, (name, k, budget)
            if rank == k:
                # no noise directions: the node estimates themselves agree;
                # beyond that the rank rule keeps noise (the clip quotient's
                # floor sits above 1e-10), whose nodes neither path pins down
                assert np.max(np.abs(pos - ref_pos)) <= 1e-9, (name, k, budget)
            # the same verdict and atom count; where the fit recovered the
            # measure, the same measure (a split into spurious atoms that
            # both paths refuse is a different local minimum on each)
            assert fast.passed == slow.passed, (name, k, budget)
            assert (fast.recovered is None) == (slow.recovered is None)
            if fast.recovered is not None:
                assert len(fast.recovered.positions) == len(slow.recovered.positions)
            if slow.passed:
                got = np.array([fast.recovered.positions, fast.recovered.masses])
                want = np.array([slow.recovered.positions, slow.recovered.masses])
                assert np.max(np.abs(got - want)) <= 1e-9, (name, k, budget)


def test_pencil_positions_lie_in_the_alias_free_range(monkeypatch):
    # a node is kept only when |log|node|| < 0.7, which drops NaN and inf nodes, and its
    # angle lies in [-pi, pi], so no position lies past pi/dz: the range needs no check
    rng = np.random.default_rng(74)
    eigvals = np.linalg.eigvals
    extra = np.array([np.nan, np.inf, complex(np.inf, np.nan), complex(np.nan, 1.0), -1.0,
                      complex(-1.0, -0.0), np.exp(3.1j), 1.9, 0.5])

    def padded(a):  # the pencil's own nodes plus NaN, inf and unit-circle ones
        return np.concatenate([eigvals(a), extra])

    for trial in range(300):
        n, dz, budget = rng.integers(8, 258), rng.uniform(1e-3, 4.0), rng.integers(1, 6)
        quotient = 10.0 ** rng.uniform(-4, 4, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        if trial % 3 == 1:
            quotient[rng.integers(0, n, rng.integers(1, 4))] = rng.choice(
                [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
        monkeypatch.setattr(np.linalg, "eigvals", padded if trial % 3 == 2 else eigvals)
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                pos, _ = recovery._pencil_estimate(quotient, dz, budget)
        except np.linalg.LinAlgError:  # the sketch's SVD refuses a non-finite quotient
            assert not np.all(np.isfinite(quotient))
            continue
        assert np.all(np.abs(pos) <= np.pi / dz), trial


@pytest.mark.parametrize("name", BUILTIN_GAUGE_NAMES)
def test_fit_jacobian_matches_central_differences(name):
    # no fit row sits within the difference step of a clip kink at the offsets used
    data = _fit_problem(name, (-1.0, 0.6), (0.3, 0.4))
    params = np.array([-0.93, 0.71, 0.27, 0.45])  # off the optimum
    jac = recovery._fit_jacobian(params, *data)
    step = 1e-6
    fd = np.empty_like(jac)
    for j in range(params.size):
        e = np.zeros_like(params)
        e[j] = step
        plus = recovery._fit_residual(params + e, *data)
        minus = recovery._fit_residual(params - e, *data)
        fd[:, j] = (plus - minus) / (2 * step)
    assert jac.shape == (513, params.size)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


# ---------------------------------------------------------------------------
# the fit against scipy's bounded least squares
# ---------------------------------------------------------------------------

def _fit_problem(name, pos, mass, sampled=True):
    """_fit_residual data for a measure, on the rows recover_measure fits: from
    forward samples, or straight from the model (which allows a mass or position
    outside the fit's box)."""
    g, spec = make_builtin_gauge(name, alpha=2.0), RecoverySpec()
    if sampled:
        s, h = smoothed_curve_samples(g, LogMeasure(pos, mass), spec)
    else:
        s = np.linspace(-spec.window, spec.window, spec.sample_count)
        h = recovery._model(g, spec.shift, np.array(pos), np.array(mass), s)
    rows = slice(None, None, recovery._FIT_STRIDE)
    return (g, spec.shift, s[rows], h[rows], float(np.max(np.abs(h))))


def _both_fits(data, x0):
    """(ours, scipy's) from one start, with recover_measure's box and the fit's
    tolerance and evaluation cap."""
    k = len(x0) // 2
    lo = np.concatenate([np.full(k, -32.0), np.zeros(k)])
    hi = np.concatenate([np.full(k, 32.0), np.full(k, 1.5)])
    x0 = np.clip(x0, lo + 1e-12, hi - 1e-12)
    kw = dict(jac=recovery._fit_jacobian, args=data, bounds=(lo, hi), max_nfev=recovery._MAX_NFEV)
    tol = recovery._FIT_TOL
    ref = optimize.least_squares(recovery._fit_residual, x0, xtol=tol, ftol=tol, gtol=tol, **kw)
    return recovery.least_squares(x0, lo, hi, data), ref


def _assert_fit_matches_scipy(data, ours, ref, x_tol):
    # no worse than scipy beyond roundoff: 1e-9 relative, or 1e-14 on a residual
    # vector of 513 entries of at most unit scale
    ours_norm = np.linalg.norm(recovery._fit_residual(ours.x, *data))
    ref_norm = np.linalg.norm(recovery._fit_residual(ref.x, *data))
    assert ours_norm <= ref_norm * (1 + 1e-9) + 1e-14
    assert np.max(np.abs(ours.x - ref.x)) <= x_tol
    assert 1 <= ours.nfev <= 400


_FIT_MEASURES = [((0.4,), (0.6,)), ((-1.2, 0.3), (0.35, 0.4)), ((-2.0, 0.0, 1.5), (0.2, 0.3, 0.25))]


@pytest.mark.parametrize("name", BUILTIN_GAUGE_NAMES)
def test_fit_matches_scipy_from_perturbed_starts(name):
    rng = np.random.default_rng(5)
    for pos, mass in _FIT_MEASURES:
        data = _fit_problem(name, pos, mass)
        for _ in range(3):
            shift, factor = rng.uniform(-0.05, 0.05, len(pos)), rng.uniform(0.8, 1.2, len(pos))
            x0 = np.concatenate([np.add(pos, shift), np.multiply(mass, factor)])
            _assert_fit_matches_scipy(data, *_both_fits(data, x0), x_tol=1e-10)


@pytest.mark.parametrize("name", BUILTIN_GAUGE_NAMES)
def test_fit_matches_scipy_on_an_active_bound(name):
    # an atom beyond the window pins its position at -32 (the clip kernel vanishes on
    # y >= 0, so an atom at +32 or beyond leaves no sample to fit); a mass of 2 pins it at 1.5
    cases = (((-33.0, 0.4), (0.4, 0.3), (0, -32.0)), ((-0.5, 1.0), (0.3, 2.0), (3, 1.5)))
    for pos, mass, pinned in cases:
        data = _fit_problem(name, pos, mass, sampled=False)
        x0 = np.concatenate([np.add(pos, 0.02), np.minimum(mass, 1.4)])
        ours, ref = _both_fits(data, x0)
        _assert_fit_matches_scipy(data, ours, ref, x_tol=1e-8)
        assert ours.x[pinned[0]] == pinned[1]


@pytest.mark.parametrize("name", BUILTIN_GAUGE_NAMES)
def test_fit_stops_at_exactly_max_nfev_residual_evaluations(name, monkeypatch):
    data = _fit_problem(name, (-0.5, 1.0), (0.3, 2.0), sampled=False)
    x0 = np.array([-0.48, 1.02, 0.3, 1.4])
    assert _both_fits(data, x0)[0].nfev > 5
    monkeypatch.setattr(recovery, "_MAX_NFEV", 5)
    assert _both_fits(data, x0)[0].nfev == 5


# ---------------------------------------------------------------------------
# the pencil's frequency run
# ---------------------------------------------------------------------------


def _longest_run_loop(mask):
    """The first longest run of True, one entry at a time."""
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=300))
@example([])
@example([True] * 258)
@example([False] * 258)
@example([True, True, False, True, True, False, False, True, True])  # a three-way tie
@example([False, True, False, True, True, True, False, True, True, True])
def test_longest_run_matches_the_loop(mask):
    mask = np.array(mask, dtype=bool)
    assert recovery._longest_run(mask) == _longest_run_loop(mask)
