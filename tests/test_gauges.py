import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from isolab.gauges import (
    BUILTIN_GAUGE_NAMES,
    Gauge,
    StripViolationError,
    check_admissibility,
    clipped_square_gauge,
    frullani_integral,
    log_gauge,
    make_builtin_gauge,
    shift_kernel,
    shift_kernel_fourier_grid,
)


def test_builtin_names():
    assert set(BUILTIN_GAUGE_NAMES) == {"clip", "rational", "exp"}


def test_clip_values():
    g = make_builtin_gauge("clip")
    t = np.array([0.0, 0.25, 1.0, 7.0])
    assert np.array_equal(g(t), [0.0, 0.25, 1.0, 1.0])


def test_rational_values():
    g = make_builtin_gauge("rational")
    assert g(np.array([1.0]))[0] == 0.5
    assert abs(g(np.array([3.0]))[0] - 0.75) < 1e-15


def test_exp_values():
    g = make_builtin_gauge("exp")
    assert abs(g(np.array([1.0]))[0] - (1.0 - np.exp(-1.0))) < 1e-15


def test_unknown_gauge_rejected():
    with pytest.raises(ValueError):
        make_builtin_gauge("parabola")
    with pytest.raises(ValueError):
        make_builtin_gauge("rational", alpha=np.inf)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["clip", "rational", "exp"])
def test_builtin_gauges_admissible(name):
    rep = check_admissibility(make_builtin_gauge(name))
    assert rep.all_pass, rep.as_record()


def test_clipped_square_fails_subadditivity_only_there():
    rep = check_admissibility(clipped_square_gauge())
    assert not rep.check("subadditive").passed
    # the counterexample witness: theta(0.5)+theta(0.5)=0.5 < theta(1)=1
    assert rep.check("small_growth").passed
    assert rep.check("large_growth").passed
    assert not rep.all_pass


def test_rational_alpha2_growth_ok_subadditivity_fails():
    # t^2/(1+t^2) has valid order-2 growth bounds but is not subadditive:
    # at (0.5, 0.5) the sum 0.4 falls short of theta(1) = 0.5
    rep = check_admissibility(make_builtin_gauge("rational", alpha=2.0))
    assert rep.check("small_growth").passed
    assert rep.check("large_growth").passed
    assert not rep.check("subadditive").passed


def test_admissibility_report_shape():
    rep = check_admissibility(make_builtin_gauge("clip"))
    rec = rep.as_record()
    assert rec["gauge"] == "clip"
    assert rec["all_pass"] is True
    assert "subadditive.worst_gap" in rec


@pytest.mark.parametrize("name", BUILTIN_GAUGE_NAMES)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_no_worst_gap_is_negative_zero(name, alpha):
    # max() keeps the first of equal values, so a -0.0 met before 0.0 used
    # to reach the report as bounded_range.worst_gap=-0.0 (rational)
    rep = check_admissibility(make_builtin_gauge(name, alpha=alpha))
    assert not any(np.signbit(c.worst_gap) for c in rep.checks), rep.as_record()


@pytest.mark.parametrize("declare_kinks", [True, False], ids=["kinks", "no_kinks"])
def test_monotone_sees_a_dip_between_value_samples(declare_kinks):
    # t/(1+t) minus a triangular dip 0.05 deep and 0.0015 in half-width,
    # placed between two of the 1201 log-spaced value samples (0.4937 and
    # 0.5012), so every sampled difference still increases
    c, w, depth = 0.4974, 0.0015, 0.05

    def fn(t):
        return t / (1.0 + t) - depth * np.maximum(0.0, 1.0 - np.abs(t - c) / w)

    def deriv(t):
        return 1.0 / (1.0 + t) ** 2 + np.where(np.abs(t - c) < w, depth / w * np.sign(t - c), 0.0)

    kinks = (c - w, c, c + w) if declare_kinks else ()
    rep = check_admissibility(Gauge("dip", fn, deriv, growth_exponent=1.0, kinks=kinks))
    assert not rep.check("monotone").passed
    assert rep.check("monotone").worst_gap > 1.0  # theta' about -33 inside the dip
    assert rep.check("subadditive").passed
    assert rep.check("derivative_mass").passed == declare_kinks


def test_rational_theta_finite_where_t_alpha_overflows():
    # t^alpha / (1 + t^alpha) is inf / inf where t^alpha overflows
    t = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 20001), [np.inf]])
    for alpha in (0.5, 1.0, 2.0, 3.0, 7.5, 100.0, 400.0):
        g = make_builtin_gauge("rational", alpha=alpha)
        assert np.all(np.isfinite(g(t))) and np.all(np.isfinite(g.derivative(t))), alpha
        assert g(t)[-1] == 1.0 and g.derivative(t)[-1] == 0.0


def test_rational_alpha400_is_not_subadditive():
    # in floats theta(0.6) = 0.6^400 is about 1e-89 and theta(1.2) is 1, so the gap is 1
    rep = check_admissibility(make_builtin_gauge("rational", alpha=400.0))
    assert not rep.check("subadditive").passed
    assert rep.check("subadditive").worst_gap == 1.0


def test_nan_samples_fail_their_checks():
    # a gauge that breaks down above t = 100: every check that samples there fails
    def fn(t):
        return np.where(t > 100.0, np.nan, t / (1.0 + t))

    def deriv(t):
        return np.where(t > 100.0, np.nan, 1.0 / (1.0 + t) ** 2)

    rep = check_admissibility(Gauge("nan", fn, deriv, growth_exponent=1.0))
    for name in ("bounded_range", "monotone", "large_growth", "derivative_mass"):
        assert not rep.check(name).passed, name
    assert rep.check("zero_value").passed and rep.check("subadditive").passed


def test_derivative_error_propagates():
    # a bug in a user-built derivative is not a failed hypothesis
    def broken(t):
        raise TypeError("broken derivative")

    g = dataclasses.replace(make_builtin_gauge("exp"), derivative=broken)
    with pytest.raises(TypeError, match="broken derivative"):
        check_admissibility(g)


def test_derivative_mass_that_never_stabilizes_fails():
    # every refinement pass sees a derivative 0.1% larger than the last, so
    # the passes never agree and the mesh bound ends the refinement
    g = dataclasses.replace(
        make_builtin_gauge("exp"), derivative=lambda t: np.exp(-t) * (1.0 + 1e-3 * np.log2(t.size))
    )
    check = check_admissibility(g).check("derivative_mass")
    assert check.worst_gap == np.inf
    assert not check.passed


# ---------------------------------------------------------------------------
# kernel and dilation integral
# ---------------------------------------------------------------------------


def test_shift_kernel_frozen_value():
    # G(y) = theta(e^{y+c}) - theta(e^y); for clip at y=-ln2, c=ln2:
    # theta(1) - theta(1/2) = 1 - 1/2
    g = make_builtin_gauge("clip")
    v = shift_kernel(g, np.log(2.0), np.array([-np.log(2.0)]))[0]
    assert abs(v - 0.5) < 1e-15


def test_log_gauge_matches_direct():
    g = make_builtin_gauge("exp")
    w = np.array([-2.0, 0.0, 1.3])
    assert np.allclose(log_gauge(g, w), g(np.exp(w)), rtol=0, atol=1e-15)


def test_shift_kernel_nonnegative_and_decaying():
    g = make_builtin_gauge("rational")
    y = np.linspace(-30, 30, 401)
    vals = shift_kernel(g, 1.0, y)
    assert np.all(vals >= -1e-15)
    assert vals[0] < 1e-10 and vals[-1] < 1e-10


@pytest.mark.parametrize("name", ["clip", "rational", "exp"])
@pytest.mark.parametrize("rho", [1.5, 2.0, np.e, 10.0])
def test_frullani_equals_log_rho(name, rho):
    g = make_builtin_gauge(name)
    val = frullani_integral(g, rho, 1e-9)
    assert abs(val - np.log(rho)) < 1e-6


def test_frullani_against_x_space_oracle():
    # independent route: integrate (theta(rho x) - theta(x))/x in x-space
    # with scipy.quad, never entering log coordinates
    g = make_builtin_gauge("rational")
    rho = 2.5

    def integrand(x):
        return (g(np.array([rho * x]))[0] - g(np.array([x]))[0]) / x

    oracle, err = quad(integrand, 0.0, np.inf, limit=200)
    assert err < 1e-9
    val = frullani_integral(g, rho, 1e-10)
    assert abs(val - oracle) < 1e-8


@pytest.mark.parametrize("name", ["clip", "rational", "exp"])
@pytest.mark.parametrize("rho", [1.5, 2.0, 10.0])
@pytest.mark.parametrize("tol", [1e-9, 1e-7])
def test_frullani_is_the_kernel_transform_at_zero(name, rho, tol):
    # one panel path: the dilation integral is the kernel transform at z = 0,
    # taken on panels even for a gauge that carries a closed form
    g = make_builtin_gauge(name)
    at_zero = shift_kernel_fourier_grid(dataclasses.replace(g, mellin=None), np.log(rho), [0], tol)
    assert frullani_integral(g, rho, tol) == at_zero[0].real


def test_frullani_rejects_rho_at_most_one():
    with pytest.raises(ValueError):
        frullani_integral(make_builtin_gauge("clip"), 1.0)


# ---------------------------------------------------------------------------
# kernel transform
# ---------------------------------------------------------------------------


def _mpmath_kernel_transform(name, shift, z, alpha=1.0):
    """Finite-window transform of the shift kernel via mpmath, dps=15.

    The kernel decays exponentially, so [-46, 46] is negligibly truncated;
    the integrand kinks of the clip gauges are used as split points.
    """
    gauges = {
        "clip": lambda w: min(mpmath.mpf(1), mpmath.e**w),
        "clipsq": lambda w: min(mpmath.mpf(1), mpmath.e ** (2 * w)),
        "rational": lambda w: 1 / (1 + mpmath.e ** (-alpha * w)),
        "exp": lambda w: 1 - mpmath.e ** (-(mpmath.e**w)),
    }
    th = gauges[name]

    def f(y):
        return (th(y + shift) - th(y)) * mpmath.e ** (-1j * z * y)

    pts = [-46, -shift, 0, 46] if name.startswith("clip") else [-46, 0, 46]
    return complex(mpmath.quad(f, pts))


KERNEL_GAUGES = [
    ("clip", None), ("rational", 0.5), ("rational", 1.0), ("rational", 2.0),
    ("rational", 3.0), ("exp", None), ("clipsq", None),
]


def _kernel_gauge(name, alpha, path):
    """The gauge with its closed-form transform, or stripped to quadrature."""
    if name == "clipsq":
        g = clipped_square_gauge()
    elif name == "rational":
        g = make_builtin_gauge(name, alpha=alpha)
    else:
        g = make_builtin_gauge(name)
    assert g.mellin is not None
    return g if path == "closed" else dataclasses.replace(g, mellin=None)


def _kernel_case_id(name, alpha, path):
    label = name if alpha in (None, 1.0) else f"{name}{alpha:g}"
    return label if path == "closed" else f"{label}-quadrature"


@pytest.mark.parametrize(
    "name, alpha, path",
    [
        pytest.param(name, alpha, path, id=_kernel_case_id(name, alpha, path))
        for path in ("closed", "quadrature")
        for name, alpha in KERNEL_GAUGES
    ],
)
def test_kernel_transform_against_mpmath(name, alpha, path):
    g = _kernel_gauge(name, alpha, path)
    shift = 1.0
    zs = np.array([-3.0, -1.0, -0.25, 0.0, 0.5, 2.0])
    got = shift_kernel_fourier_grid(g, shift, zs, 1e-11)
    for z, gv in zip(zs, got):
        want = _mpmath_kernel_transform(name, shift, float(z), alpha)
        assert abs(gv - want) < 1e-8, (name, z)


@pytest.mark.parametrize("name, alpha", KERNEL_GAUGES)
def test_kernel_transform_closed_form_matches_quadrature(name, alpha):
    closed = _kernel_gauge(name, alpha, "closed")
    quad = _kernel_gauge(name, alpha, "quadrature")
    tol = 1e-11
    grid = np.linspace(-8.0, 8.0, 257)
    diff = shift_kernel_fourier_grid(closed, 0.75, grid, tol) - shift_kernel_fourier_grid(
        quad, 0.75, grid, tol
    )
    assert np.max(np.abs(diff)) < 1e-9
    a = closed.growth_exponent
    inside = np.array([0.3 + 0.2j * a, -1.5 - 0.4j * a])
    diff = shift_kernel_fourier_grid(closed, 0.75, inside, tol) - shift_kernel_fourier_grid(
        quad, 0.75, inside, tol
    )
    assert np.max(np.abs(diff)) < 1e-9


def test_kernel_transform_at_zero_equals_shift():
    # integral of the shift kernel over the line is exactly the shift
    for name, alpha in KERNEL_GAUGES:
        assert shift_kernel_fourier_grid(_kernel_gauge(name, alpha, "closed"), 0.75, [0.0])[0] == 0.75
    for name in ("clip", "exp"):
        g = _kernel_gauge(name, None, "quadrature")
        v = shift_kernel_fourier_grid(g, 0.75, [0.0], 1e-11)[0]
        assert abs(v - 0.75) < 1e-9, name


def test_kernel_transform_conjugate_symmetry():
    g = make_builtin_gauge("rational")
    a = shift_kernel_fourier_grid(g, 1.0, [2.0])[0]
    b = shift_kernel_fourier_grid(g, 1.0, [-2.0])[0]
    assert abs(a - np.conj(b)) < 1e-10


def test_kernel_transform_strip_violation():
    # rational(1) decays like e^{-|y|}: the transform is only certified
    # for |Im z| strictly inside the decay exponent
    for path in ("closed", "quadrature"):
        g = _kernel_gauge("rational", 1.0, path)
        with pytest.raises(StripViolationError):
            shift_kernel_fourier_grid(g, 1.0, [1.0j])


@pytest.mark.parametrize("path", ["closed", "quadrature"])
@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_kernel_transform_rejects_nonfinite_frequency(path, z):
    g = _kernel_gauge("exp", None, path)
    with pytest.raises(ValueError, match="finite"):
        shift_kernel_fourier_grid(g, 1.0, [0.5, z])


def test_kernel_transform_complex_inside_strip():
    want = _mpmath_kernel_transform("rational", 1.0, 0.3 + 0.2j)
    for path in ("closed", "quadrature"):
        g = _kernel_gauge("rational", 1.0, path)
        v = shift_kernel_fourier_grid(g, 1.0, [0.3 + 0.2j], 1e-10)[0]
        assert abs(v - want) < 1e-8, path
