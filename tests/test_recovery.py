import numpy as np
import pytest

from isolab.gauges import make_builtin_gauge
from isolab.metric import AtomicMeasure
from isolab.recovery import (
    LogMeasure,
    RecoveryFailed,
    RecoverySpec,
    fourier_from_samples,
    measure_transform,
    recover_measure,
    roundtrip_check,
    smoothed_curve,
    smoothed_curve_samples,
)

RAT2 = make_builtin_gauge("rational", alpha=2.0)
EXP = make_builtin_gauge("exp")


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


def test_log_measure_atomic_roundtrip():
    m = AtomicMeasure((0.5, 2.0), (0.25, 0.5))
    lm = LogMeasure.from_atomic(m)
    assert np.allclose(lm.positions, np.log([0.5, 2.0]))
    back = lm.to_atomic()
    assert m.approx_equal(back)


def test_smoothed_curve_shift_equivariance():
    # translating the measure translates the observation the other way
    nu = LogMeasure((-0.5, 1.25), (0.3, 0.4))
    s = np.linspace(-4, 4, 33)
    d = 0.7
    a = smoothed_curve(EXP, nu.shifted(d), 1.0, s)
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


def test_measure_transform_closed_form():
    nu = LogMeasure((0.0, 2.0), (0.5, 0.25))
    zs = np.array([0.0, 0.5])
    vals = measure_transform(nu, zs)
    assert abs(vals[0] - 0.75) < 1e-15
    want = 0.5 + 0.25 * np.exp(1j * 1.0)
    assert abs(vals[1] - want) < 1e-15


# ---------------------------------------------------------------------------
# recovery roundtrips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [RAT2, EXP], ids=["rational2", "exp"])
def test_roundtrip_single_atom(g):
    rep = roundtrip_check(g, LogMeasure((0.4,), (0.6,)), RecoverySpec(), 1)
    assert rep.max_position_error < 1e-6
    assert rep.max_mass_error < 1e-6
    assert rep.passed


@pytest.mark.parametrize("g", [RAT2, EXP], ids=["rational2", "exp"])
def test_roundtrip_two_atoms(g):
    nu = LogMeasure((-1.2, 0.3), (0.35, 0.4))
    rep = roundtrip_check(g, nu, RecoverySpec(), 2)
    assert rep.max_position_error < 1e-3
    assert rep.max_mass_error < 1e-3


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
    with pytest.raises(RecoveryFailed, match="alias"):
        recover_measure(EXP, s, h, spec, 1)


def test_recover_measure_residual_rejection_keeps_candidate():
    spec = RecoverySpec()
    nu = LogMeasure((0.0,), (0.5,))
    s, h = smoothed_curve_samples(EXP, nu, spec)
    h = h + 1e-3 * np.sin(5.0 * s)  # corrupt beyond residual_tol
    with pytest.raises(RecoveryFailed) as exc_info:
        recover_measure(EXP, s, h, spec, 1)
    err = exc_info.value
    assert err.residual > 1e-5
    assert err.candidate is not None


def test_recovery_spec_validation():
    with pytest.raises(ValueError):
        RecoverySpec(shift=0.0)
    with pytest.raises(ValueError):
        RecoverySpec(frequency_grid=(0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.5))
    grid = np.linspace(-8.0, 8.0, 17)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="shift"):
            RecoverySpec(shift=bad)
        with pytest.raises(ValueError, match="window"):
            RecoverySpec(window=bad)
        for i in (0, 5, 16):
            with pytest.raises(ValueError, match="finite"):
                RecoverySpec(frequency_grid=tuple(np.where(np.arange(17) == i, bad, grid)))
        with pytest.raises(ValueError, match="regularization_floor"):
            RecoverySpec(regularization_floor=bad)
    with pytest.raises(ValueError, match="regularization_floor"):
        RecoverySpec(regularization_floor=-1e-8)
    for count in (1, 0, -3):
        with pytest.raises(ValueError, match="sample_count"):
            RecoverySpec(sample_count=count)
