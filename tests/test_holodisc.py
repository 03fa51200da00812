import warnings

import mpmath
import numpy as np
import pytest

from isolab.holodisc import (
    DiscExhaustion,
    HpFamily,
    MatrixOperator,
    NotCharacterizable,
    RotationOperator,
    SupFamily,
    TaylorFunction,
    WeightedCompositionOperator,
    characterize_isometry,
    hp_seminorm,
    isometry_test,
    operator_matrix,
    random_taylor,
    standard_probes,
    strict_monotonicity_check,
    sup_seminorm,
    three_circle_check,
)
from isolab.holodisc import _circle_max, _circle_values, _require_samples


def test_taylor_trims_trailing_zeros():
    f = TaylorFunction((1.0, 2.0, 0.0, 0.0))
    assert f.degree == 1
    assert TaylorFunction((0.0,)).degree == 0


def test_taylor_evaluation_horner():
    f = TaylorFunction((1.0, 0.0, -2.0))
    z = 0.5 + 0.25j
    assert abs(f(z) - (1.0 - 2.0 * z**2)) < 1e-15


def test_taylor_algebra():
    f = TaylorFunction((1.0, 1.0))
    g = TaylorFunction((0.0, 0.0, 1.0))
    assert np.array_equal((f + g).coefficients, (1.0, 1.0, 1.0))
    assert np.array_equal((f - f).coefficients, (0.0,))
    # (1+z) * z^2 = z^2 + z^3
    assert np.array_equal((f * g).coefficients, (0.0, 0.0, 1.0, 1.0))
    # (1+z) o z^2 = 1 + z^2
    assert np.array_equal(f.compose(g).coefficients, (1.0, 0.0, 1.0))


def test_taylor_coefficients_are_a_read_only_copy():
    src = np.array([1.0, 2.0j, 0.0, 0.0])
    f = TaylorFunction(src)
    assert f.array is f.coefficients and f.array is f.array
    assert not f.coefficients.flags.writeable
    assert f.coefficients.dtype == complex
    assert np.array_equal(f.coefficients, (1.0, 2.0j))
    # the caller's array is neither aliased nor frozen
    assert src.flags.writeable
    assert not np.shares_memory(src, f.coefficients)
    src[0] = 7.0
    assert f.coefficients[0] == 1.0
    with pytest.raises(ValueError):
        f.coefficients[0] = 5.0


def test_taylor_trims_to_the_constant_term():
    for zeros in ((0.0,), (0.0, 0.0, 0.0), np.zeros(5, dtype=complex), (0.0, -0.0j)):
        f = TaylorFunction(zeros)
        assert f.degree == 0
        assert np.array_equal(f.coefficients, (0,))
        assert f.coefficients.shape == (1,)
    assert TaylorFunction((3.0, 0.0, 1e-300, 0.0)).degree == 2


def test_taylor_equality_compares_canonical_forms():
    assert TaylorFunction((1, 0)) == TaylorFunction((1,))
    assert TaylorFunction((1.0, 2.0)) == TaylorFunction(np.array([1.0, 2.0, 0.0]))
    assert TaylorFunction((1.0, 2.0)) != TaylorFunction((1.0, 2.5))
    assert TaylorFunction((1.0,)) != TaylorFunction((1.0, 1.0))
    assert TaylorFunction((1.0,)) != (1.0,)
    with pytest.raises(TypeError):
        hash(TaylorFunction((1.0,)))


def test_matrix_operator_stores_a_read_only_copy():
    rng = np.random.default_rng(4)
    src = rng.normal(size=(6, 6)).T  # column-major on purpose
    op = MatrixOperator(src)
    assert op.array is op.matrix and op.array is op.array
    assert not op.matrix.flags.writeable
    assert op.matrix.dtype == complex and op.matrix.flags.c_contiguous
    assert np.array_equal(op.matrix, src)
    # held row-major whatever the input layout, so apply gives the row-major product's bits
    f = random_taylor(rng, 5)
    want = np.ascontiguousarray(src, dtype=complex) @ f.array
    assert np.array_equal(op.apply(f).array, TaylorFunction(want).array)
    assert src.flags.writeable
    assert not np.shares_memory(src, op.matrix)
    src[0, 0] = 7.0
    assert op.matrix[0, 0] != 7.0
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0
    with pytest.raises(ValueError, match="square"):
        MatrixOperator(np.ones((2, 3)))


def test_random_taylor_degree_and_significance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = random_taylor(rng, 12, min_significant=2)
        assert f.degree == 12
        assert int(np.sum(np.abs(f.array) >= 0.1)) >= 2


def test_exhaustion_default_radii():
    exh = DiscExhaustion.default(3)
    assert np.allclose(exh.radii, (0.5, 2.0 / 3.0, 0.75))


def test_exhaustion_validation():
    with pytest.raises(ValueError):
        DiscExhaustion((0.5, 0.5))


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


def test_sup_seminorm_monomial_closed_form():
    # sup over a circle of |c z^k| is |c| r^k
    f = TaylorFunction.monomial(5, 2.0 - 1.0j)
    r = 0.7
    want = abs(2.0 - 1.0j) * r**5
    assert abs(sup_seminorm(f, r) - want) < 1e-14


def test_sup_seminorm_constant():
    assert sup_seminorm(TaylorFunction((3.0,)), 0.9) == 3.0


def test_sup_seminorm_refinement_beats_grid():
    rng = np.random.default_rng(3)
    f = random_taylor(rng, 24)
    q = 128  # the default sample count for degree 24
    grid_only = float(np.max(np.abs(f(0.8 * np.exp(2j * np.pi * np.arange(q) / q)))))
    refined = sup_seminorm(f, 0.8)
    assert refined >= grid_only - 1e-15
    # a dense grid estimate approaches the refined value from below
    theta = np.linspace(0, 2 * np.pi, 200001)
    dense = float(np.max(np.abs(f(0.8 * np.exp(1j * theta)))))
    assert refined >= dense - 1e-12
    assert refined - dense < 1e-7


def test_sup_seminorm_rotation_invariance():
    # the refined sup must not see coefficient rotations
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(30):
        f = random_taylor(rng, int(rng.integers(1, 33)))
        beta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = TaylorFunction(tuple(f.array * beta ** np.arange(f.degree + 1)))
        for r in (0.5, 0.75):
            worst = max(worst, abs(sup_seminorm(f, r) - sup_seminorm(g, r)))
    assert worst < 1e-12


def _oracle_circle_max(f, r, dense):
    """Largest |f| over the 30-digit critical points found from a dense grid.

    Every local maximum of |f|^2 on the dense grid seeds mpmath.findroot
    on d/dtheta |f|^2 = 2 Re(conj(f) f'(z) i z).
    """
    n = dense.size
    v = np.abs(f(r * dense)) ** 2
    starts = np.flatnonzero((v >= np.roll(v, 1)) & (v >= np.roll(v, -1)))
    with mpmath.workdps(30):
        coeffs = [mpmath.mpc(c.real, c.imag) for c in reversed(f.coefficients)]
        rr = mpmath.mpf(r)

        def abs2(t):
            return abs(mpmath.polyval(coeffs, rr * mpmath.expj(t))) ** 2

        def slope(t):
            z = rr * mpmath.expj(t)
            fz, dfz = mpmath.polyval(coeffs, z, derivative=True)
            return 2 * mpmath.re(mpmath.conj(fz) * dfz * 1j * z)

        h = 2 * mpmath.pi / n
        best = max(abs2(mpmath.findroot(slope, (j * h - h / 2, j * h + h / 2))) for j in starts)
        return float(mpmath.sqrt(best))


def _slope_candidate(f, r):
    """Whether the old three-candidate rule picked a grid point that is no local max.

    That rule took the three highest default-grid samples 2.5 cells apart;
    a candidate without a local maximum fell into a golden-section search.
    """
    q = max(64, 1 << int(np.ceil(np.log2(4 * (f.degree + 1)))))
    v = np.abs(f(r * np.exp(2j * np.pi * np.arange(q) / q))) ** 2
    picked = []
    for i in np.argsort(v)[::-1]:
        if all(min(abs(i - j), q - abs(i - j)) > 2.5 for j in picked):
            picked.append(int(i))
        if len(picked) == 3:
            break
    return any(v[i] < v[i - 1] or v[i] < v[(i + 1) % q] for i in picked[1:])


def test_sup_seminorm_matches_mpmath_oracle():
    rng = np.random.default_rng(29)
    dense = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
    slope_draws = 0
    for _ in range(24):
        f = random_taylor(rng, int(rng.integers(1, 33)))
        r = float(rng.uniform(0.05, 0.95))
        beta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = TaylorFunction(tuple(f.array * beta ** np.arange(f.degree + 1)))
        want = _oracle_circle_max(f, r, dense)
        for fn in (f, g):
            got = sup_seminorm(fn, r)
            assert abs(got - want) <= 1e-13 * want
            assert got >= float(np.max(np.abs(fn(r * dense))))
        slope_draws += _slope_candidate(f, r)
    assert slope_draws > 0


def test_sup_seminorm_sample_guard():
    f = TaylorFunction.monomial(40)
    with pytest.raises(ValueError):
        sup_seminorm(f, 0.5, samples=64)
    with pytest.raises(ValueError):
        sup_seminorm(f, 1.0)
    with pytest.raises(ValueError):
        sup_seminorm(TaylorFunction.one(), 0.5, samples=0)


def test_circle_max_batch_matches_one_radius_calls():
    # the rows of a batch are the one-radius results up to the summation
    # order of the Newton terms; none falls below its own grid maximum
    rng = np.random.default_rng(31)
    for _ in range(300):
        f = random_taylor(rng, int(rng.integers(1, 33)))
        radii = np.sort(rng.uniform(0.05, 0.95, 3))
        q = _require_samples(f, None)
        batch = _circle_max(f, radii, q)
        assert np.array_equal(sup_seminorm(f, radii, q), batch)
        single = np.array([sup_seminorm(f, r, q) for r in radii])
        assert np.all(np.abs(batch - single) <= 4e-16 * single)
        assert np.all(batch >= np.abs(_circle_values(f.array, radii, q)).max(axis=1))


def test_circle_max_batch_keeps_flat_and_refined_rows_apart():
    # |1 + z^24| varies by 2 r^24 around the circle: below the flatness
    # threshold at r = 0.1 only, so one batch mixes a flat and two refined rows
    f = TaylorFunction.monomial(24) + TaylorFunction.one()
    radii = np.array([0.1, 0.5, 0.9])
    q = _require_samples(f, None)
    vals2 = np.abs(_circle_values(f.array, radii, q)) ** 2
    spread = vals2.max(axis=1) - vals2.min(axis=1)
    assert list(spread <= 1e-15 * np.maximum(vals2.max(axis=1), 1.0)) == [True, False, False]
    batch = _circle_max(f, radii, q)
    assert np.array_equal(sup_seminorm(f, radii, q), batch)
    single = np.array([sup_seminorm(f, r, q) for r in radii])
    assert batch[0] == single[0] and np.all(np.abs(batch - single) <= 4e-16 * single)
    assert np.all(np.abs(batch - (1.0 + radii**24)) <= 2e-16 * batch)


def test_three_circle_maxima_match_mpmath_oracle():
    rng = np.random.default_rng(37)
    dense = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
    radii = (0.25, 0.5, 0.75)
    for _ in range(8):
        f = random_taylor(rng, int(rng.integers(1, 25)), min_significant=2)
        ms = _circle_max(f, np.array(radii), _require_samples(f, None))
        for m, r in zip(ms, radii):
            assert abs(m - _oracle_circle_max(f, r, dense)) <= 1e-13 * m
        rep = three_circle_check(f, *radii)
        assert rep.lhs == float(np.log(3.0) * np.log(ms[1]))
        assert rep.rhs == float(np.log(1.5) * np.log(ms[0]) + np.log(2.0) * np.log(ms[2]))


def test_sup_seminorm_scales_by_powers_of_two_exactly():
    # f is scaled by an exact power of two inside, so |f|^2 of 2^600 f does
    # not overflow to inf and the maximum scales bit for bit
    rng = np.random.default_rng(41)
    for _ in range(20):
        f = random_taylor(rng, int(rng.integers(0, 25)))
        r = float(rng.uniform(0.05, 0.95))
        assert sup_seminorm(f.scaled(2.0**600), r) == 2.0**600 * sup_seminorm(f, r)


def test_sup_seminorm_of_a_coefficient_whose_modulus_leaves_the_float_range():
    # |c| overflows for c = 1.7e308 (1 + i), but the maximum |c| r^5 at r = 1/2 is a float
    got = sup_seminorm(TaylorFunction.monomial(5, 1.7e308 + 1.7e308j), 0.5)
    want = float(np.hypot(1.7e308 / 32, 1.7e308 / 32))
    assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("s", [1e-9, 2.0**-600, 1e-300, 1e9, 1e150])
def test_sup_seminorm_is_scale_invariant(s):
    # the flatness test reads the scaled |f|^2, so a small f is refined like
    # any other instead of keeping its grid peak as if it had constant modulus
    rng = np.random.default_rng(3)
    for _ in range(200):
        f = random_taylor(rng, int(rng.integers(1, 25)))
        want = sup_seminorm(f, 0.75)
        assert abs(sup_seminorm(f.scaled(s), 0.75) / s - want) <= 1e-15 * want


def test_hp_seminorm_parseval_closed_form():
    # p=2 circle mean is sqrt(sum |c_k|^2 r^{2k}), exact for equispaced
    # sampling once the grid clears twice the degree
    rng = np.random.default_rng(5)
    for _ in range(30):
        f = random_taylor(rng, int(rng.integers(0, 33)))
        for r in (0.5, 2.0 / 3.0, 0.75):
            want = float(np.sqrt(np.sum(np.abs(f.array) ** 2 * r ** (2 * np.arange(f.degree + 1)))))
            assert abs(hp_seminorm(f, 2, r) - want) < 1e-12


def test_hp_seminorm_orderings():
    f = TaylorFunction((1.0, -0.5, 0.25j))
    r = 0.6
    h1 = hp_seminorm(f, 1, r)
    h2 = hp_seminorm(f, 2, r)
    h3 = hp_seminorm(f, 3, r)
    s = sup_seminorm(f, r)
    assert h1 <= h2 + 1e-15 <= h3 + 2e-15 <= s + 3e-15


def test_hp_seminorm_validation():
    f = TaylorFunction.one()
    with pytest.raises(ValueError):
        hp_seminorm(f, 0.5, 0.5)
    with pytest.raises(ValueError):
        hp_seminorm(f, 2, 1.5)


def test_hp_seminorm_refuses_a_mean_out_of_float_range():
    # |z^2|^p underflows to 0 at r = 0.5 and p = 1000; |2 + z|^p overflows
    with pytest.raises(ValueError, match="^p = 1000 "):
        hp_seminorm(TaylorFunction.monomial(2), 1000, 0.5)
    with pytest.raises(ValueError, match="^p = 10000 "):
        hp_seminorm(TaylorFunction((2.0, 1.0)), 1e4, 0.5)
    assert hp_seminorm(TaylorFunction((0.0,)), 1e4, 0.5) == 0.0
    assert hp_seminorm(TaylorFunction.one(), 1e308, 0.5) == 1.0


def test_hp_seminorm_refuses_overflowing_samples_without_a_warning():
    # the circle samples of 1e308 (1 + z) leave the float range at r = 0.9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^p = 2 takes the circle mean of \|f\|\^p to inf, "):
            hp_seminorm(TaylorFunction((1e308, 1e308)), 2, 0.9)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_strict_monotonicity_nonconstant(p):
    rng = np.random.default_rng(p)
    grid = np.linspace(0.3, 0.9, 7)
    for _ in range(10):
        f = random_taylor(rng, int(rng.integers(1, 20)))
        rep = strict_monotonicity_check(f, p, grid)
        assert rep.strictly_increasing
        assert rep.min_gap > 0
        assert not rep.constant


def test_strict_monotonicity_constant_flat():
    rep = strict_monotonicity_check(TaylorFunction((2.5,)), 2, np.linspace(0.2, 0.8, 5))
    assert rep.constant
    assert not rep.strictly_increasing
    assert abs(rep.min_gap) < 1e-15


# ---------------------------------------------------------------------------
# operators and isometry tests
# ---------------------------------------------------------------------------


def _rotation_matrix(alpha, beta, size=24):
    return operator_matrix(RotationOperator(alpha, beta), size)


def test_rotation_operator_is_isometry_everywhere():
    # sup (refined) and the p=2 mean (Parseval) are exact; odd-p means
    # carry equispaced quadrature error when a zero sits near the circle,
    # so they get a tolerance matching their documented accuracy
    exh = DiscExhaustion.default(3)
    rng = np.random.default_rng(2)
    probes = standard_probes(rng, degree=10)
    op = RotationOperator(np.exp(0.4j), np.exp(-2.2j))
    for family, tol in (
        (SupFamily(), 1e-9),
        (HpFamily(1), 2e-5),
        (HpFamily(2), 1e-12),
        (HpFamily(3), 2e-5),
    ):
        rep = isometry_test(op, family, exh, probes, tol=tol)
        assert rep.passed, (family.label, rep.max_gap)


def test_doubling_fails_isometry():
    exh = DiscExhaustion.default(3)
    probes = standard_probes(np.random.default_rng(0))
    rep = isometry_test(MatrixOperator(2 * np.eye(16)), SupFamily(), exh, probes)
    assert not rep.passed
    assert rep.max_gap > 0.5


def test_isometry_test_never_passes_a_nan_gap():
    class NanFamily:
        label = "nan"

        def seminorm(self, f, radius, samples):
            return np.nan if f.degree == 1 else 1.0

    rep = isometry_test(RotationOperator(1.0, 1.0), NanFamily(), DiscExhaustion.default(3),
                        standard_probes(np.random.default_rng(0)))
    assert np.isnan(rep.max_gap)
    assert not rep.passed


def test_rotation_operator_validates_unimodularity():
    with pytest.raises(ValueError):
        RotationOperator(2.0, 1.0)


def test_weighted_composition_rejects_expanding_warp():
    with pytest.raises(ValueError):
        WeightedCompositionOperator(
            TaylorFunction.one(), TaylorFunction((0.0, 1.1))
        )


def test_matrix_operator_degree_guard():
    m = _rotation_matrix(1.0, 1.0, size=4)
    with pytest.raises(ValueError):
        m.apply(TaylorFunction.monomial(9))


def test_operator_matrix_matches_direct_action():
    op = RotationOperator(np.exp(1.1j), np.exp(0.3j))
    m = operator_matrix(op, 8)
    f = TaylorFunction((1.0, 2.0j, -0.5))
    a = op.apply(f)
    b = m.apply(f)
    assert np.allclose(a.array, b.array, rtol=0, atol=1e-15)


def test_characterize_recovers_opaque_rotation():
    rng = np.random.default_rng(7)
    exh = DiscExhaustion.default(3)
    worst = 0.0
    for _ in range(10):
        alpha = np.exp(1j * rng.uniform(0, 2 * np.pi))
        beta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        m = _rotation_matrix(alpha, beta)  # opaque matrix, symbols hidden
        for family in (SupFamily(), HpFamily(1), HpFamily(3)):
            ch = characterize_isometry(m, exh, family, rng=np.random.default_rng(1))
            worst = max(worst, abs(ch.scalar_alpha - alpha) + abs(ch.scalar_beta - beta))
    assert worst < 1e-10


def test_characterize_restricted_subfamily_identical():
    exh = DiscExhaustion.default(4)
    alpha, beta = np.exp(0.9j), np.exp(-1.7j)
    m = _rotation_matrix(alpha, beta)
    full = characterize_isometry(m, exh, SupFamily(), rng=np.random.default_rng(1))
    sub = characterize_isometry(
        m, DiscExhaustion(exh.radii[:2]), SupFamily(), rng=np.random.default_rng(1)
    )
    assert sub.scalar_alpha == full.scalar_alpha
    assert sub.scalar_beta == full.scalar_beta


def test_characterize_doubling_names_unimodularity():
    exh = DiscExhaustion.default(3)
    with pytest.raises(NotCharacterizable) as exc_info:
        characterize_isometry(MatrixOperator(2 * np.eye(16)), exh, SupFamily())
    assert exc_info.value.check == "unimodularity"


def test_characterize_square_warp_names_circle_preservation():
    exh = DiscExhaustion.default(3)
    warp = WeightedCompositionOperator(TaylorFunction.one(), TaylorFunction.monomial(2))
    with pytest.raises(NotCharacterizable) as exc_info:
        characterize_isometry(warp, exh, SupFamily())
    assert exc_info.value.check == "circle-preservation"
    # the certificate so far, up to and including the failing check
    cert = exc_info.value.certificate
    assert sorted(cert) == [
        "alpha_modulus_gap", "circle_preservation_gap", "constancy_tail", "mean_flatness_gap",
    ]
    assert cert["circle_preservation_gap"] > 1e-9
    assert exc_info.value.circle_samples == 512


def test_characterize_hp2_flags_missing_theorem():
    exh = DiscExhaustion.default(3)
    m = _rotation_matrix(np.exp(0.2j), np.exp(1.4j))
    ch = characterize_isometry(m, exh, HpFamily(2))
    assert ch.certificate.get("no_theorem_guarantee") is True
    ch_sup = characterize_isometry(m, exh, SupFamily())
    assert "no_theorem_guarantee" not in ch_sup.certificate


# ---------------------------------------------------------------------------
# three-circle inequality
# ---------------------------------------------------------------------------


def test_three_circle_random_polynomials_nonnegative_slack():
    rng = np.random.default_rng(13)
    for _ in range(60):
        f = random_taylor(rng, int(rng.integers(1, 25)), min_significant=2)
        rep = three_circle_check(f, 0.25, 0.5, 0.75)
        assert rep.slack >= -1e-12


def test_random_taylor_rejects_impossible_significance():
    with pytest.raises(ValueError):
        random_taylor(np.random.default_rng(0), 0, min_significant=2)


def test_three_circle_monomial_rigidity():
    for k in (0, 1, 4, 9):
        rep = three_circle_check(TaylorFunction.monomial(k, 1.5), 0.3, 0.5, 0.8)
        assert rep.rigidity_flag
        assert rep.monomial
        assert abs(rep.slack) <= 1e-10


def test_three_circle_binomial_strict():
    rep = three_circle_check(TaylorFunction((1.0, 1.0)), 0.25, 0.5, 0.75)
    assert rep.slack > 1e-3
    assert not rep.rigidity_flag
    assert not rep.monomial


def test_three_circle_scaling_covariance():
    # scaling f by a constant shifts both sides of the log-convexity
    # inequality identically, so the slack is scale invariant
    f = random_taylor(np.random.default_rng(4), 8, min_significant=2)
    a = three_circle_check(f, 0.2, 0.45, 0.7)
    b = three_circle_check(f.scaled(137.0), 0.2, 0.45, 0.7)
    assert abs(a.slack - b.slack) < 1e-10


def test_three_circle_refuses_maxima_outside_the_normal_range():
    # 1e308 (1 + z) keeps finite maxima; the zero function and subnormal
    # maxima have no accurate logarithm
    unit = three_circle_check(TaylorFunction((1.0, 1.0)), 0.25, 0.5, 0.75)
    big = three_circle_check(TaylorFunction((1e308, 1e308)), 0.25, 0.5, 0.75)
    assert abs(big.slack - unit.slack) < 1.5e-13
    for c in ((0.0,), (1e-320, 1e-320)):
        with pytest.raises(ValueError, match="positive normal floats"):
            three_circle_check(TaylorFunction(c), 0.25, 0.5, 0.75)


def test_three_circle_radius_validation():
    f = TaylorFunction.one()
    with pytest.raises(ValueError):
        three_circle_check(f, 0.5, 0.25, 0.75)
    with pytest.raises(ValueError):
        three_circle_check(f, 0.25, 0.5, 1.0)
