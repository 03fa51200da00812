"""End-to-end acceptance checklist for the laboratory's headline guarantees.

One test per guarantee, executed at its stated tolerance, so `pytest -v`
prints one pass/fail line for each.  Tests with a runtime promise measure
their own wall time.
"""

import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from isolab.cli import main as cli_main
from isolab.contspace import (
    DiscGrid,
    Exhaustion1D,
    ExhaustionDisc,
    GridFunction,
    IntervalGrid,
    NotWeightedComposition,
    build_zigzag_fold,
    decomposition_bound_check,
    isometry_test_grid,
    make_composition_operator,
    random_annulus_homeo,
    random_interval_homeo,
    random_probe,
    recover_weight_and_map,
    unimodular_field,
)
from isolab.gauges import (
    BUILTIN_GAUGE_NAMES,
    check_admissibility,
    clipped_square_gauge,
    frullani_integral,
    make_builtin_gauge,
)
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
    operator_matrix,
    random_taylor,
    strict_monotonicity_check,
    three_circle_check,
)
from isolab.metric import (
    SeminormVector,
    WeightSequence,
    count_support_start,
    default_t_grid,
    measures_from_vectors,
    separate,
)
from isolab.recovery import (
    LogMeasure,
    RecoverySpec,
    fourier_from_samples,
    roundtrip_check,
    smoothed_curve_samples,
)


def test_01_builtin_gauges_admissible_and_counterexample_caught():
    # the default check grid spans [1e-4, 1e4]; all three builtins must
    # clear every hypothesis in under a second of wall time
    t0 = time.perf_counter()
    for name in BUILTIN_GAUGE_NAMES:
        rep = check_admissibility(make_builtin_gauge(name))
        assert rep.all_pass, f"{name}: {rep.as_record()}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"admissibility suite took {elapsed:.2f}s"
    bad = check_admissibility(clipped_square_gauge())
    assert not bad.all_pass
    assert not bad.check("subadditive").passed


def test_02_frullani_integral_matches_log():
    t0 = time.perf_counter()
    for name in BUILTIN_GAUGE_NAMES:
        g = make_builtin_gauge(name)
        for rho in (1.5, 2.0, float(np.e), 10.0):
            err = abs(frullani_integral(g, rho) - np.log(rho))
            assert err < 1e-6, f"{name} at rho={rho}: err={err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"integral suite took {elapsed:.2f}s"


def test_03_separation_of_measure_distinct_vectors():
    rng = np.random.default_rng(101)
    gauges = [make_builtin_gauge(n) for n in BUILTIN_GAUGE_NAMES]
    assert default_t_grid().size == 200  # separate scans 200 log-spaced dilations
    t0 = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(1, 9))
        w = WeightSequence.uniform(n)
        a = SeminormVector(tuple(np.sort(rng.uniform(0.1, 10.0, n))))
        while True:
            b = SeminormVector(tuple(np.sort(rng.uniform(0.1, 10.0, n))))
            if not measures_from_vectors(w, a).approx_equal(measures_from_vectors(w, b)):
                break
        for g in gauges:
            res = separate(g, w, a, b)
            assert res.verdict == "separated"
            assert res.gap > 1e-12
    # vectors that agree as measures must never be declared separated
    for _ in range(10):
        n = int(rng.integers(2, 9))
        w = WeightSequence.uniform(n)
        vals = np.sort(rng.uniform(0.1, 10.0, n))
        a = SeminormVector(tuple(vals))
        b = SeminormVector(tuple(np.sort(rng.permutation(vals))))
        for g in gauges:
            assert separate(g, w, a, b).verdict == "not_separated"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"separation sweep took {elapsed:.2f}s"


def test_04_support_start_counting_is_exact():
    rng = np.random.default_rng(103)
    g = make_builtin_gauge("exp")
    for _ in range(100):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        body = np.sort(rng.uniform(0.1, 10.0, size=n - k))
        a = SeminormVector(tuple(np.concatenate([np.zeros(k), body])))
        assert count_support_start(g, WeightSequence.uniform(n), a, t_large=1e5) == k


def test_05_measure_recovery_roundtrip():
    rng = np.random.default_rng(107)
    spec = RecoverySpec()
    gauges = [make_builtin_gauge("rational", alpha=2.0), make_builtin_gauge("exp")]
    for g in gauges:
        for _ in range(5):
            nu = LogMeasure(
                (float(rng.uniform(-2.0, 2.0)),), (float(rng.uniform(0.2, 0.8)),)
            )
            rep = roundtrip_check(g, nu, spec, 1)
            assert rep.max_position_error < 1e-3
            assert rep.max_mass_error < 1e-3
        for _ in range(5):
            p1 = float(rng.uniform(-2.2, 0.0))
            p2 = p1 + float(rng.uniform(1.0, 2.0))  # log-scale spacing >= 1
            masses = (float(rng.uniform(0.15, 0.4)), float(rng.uniform(0.15, 0.4)))
            rep = roundtrip_check(g, LogMeasure((p1, p2), masses), spec, 2)
            assert rep.max_position_error < 1e-3
            assert rep.max_mass_error < 1e-3
        # zero frequency picks out total mass times the kernel shift
        nu = LogMeasure((-1.0, 0.6), (0.3, 0.45))
        s, h = smoothed_curve_samples(g, nu, spec)
        got = fourier_from_samples(s, h, np.array([0.0]))[0]
        assert abs(got - nu.total_mass * spec.shift) < 1e-6
        assert abs(got.imag) < 1e-9


def test_06_quadratic_mean_matches_coefficient_form():
    rng = np.random.default_rng(109)
    for _ in range(100):
        f = random_taylor(rng, int(rng.integers(0, 33)))
        c = np.abs(f.array) ** 2
        k = np.arange(c.size)
        for r in (0.5, 2.0 / 3.0, 0.75):
            want = float(np.sqrt(np.sum(c * r ** (2 * k))))
            assert abs(hp_seminorm(f, 2, r) - want) < 1e-12


def test_07_circle_means_strictly_increase():
    rng = np.random.default_rng(113)
    radii = np.linspace(0.3, 0.9, 7)
    for _ in range(100):
        f = random_taylor(rng, int(rng.integers(1, 21)), min_significant=2)
        for p in (1, 2, 3):
            rep = strict_monotonicity_check(f, p, radii)
            assert rep.strictly_increasing and not rep.constant
    for _ in range(5):
        c = complex(rng.normal(), rng.normal()) + 0.5
        rep = strict_monotonicity_check(TaylorFunction((c,)), 2, radii)
        assert rep.constant
        assert rep.min_gap == 0.0


def test_08_rotation_characterization_on_opaque_matrices():
    rng = np.random.default_rng(127)
    circles = DiscExhaustion.default(4)
    sub_circles = DiscExhaustion(circles.radii[:2])
    hp_circles = DiscExhaustion.default(3)
    worst = 0.0
    for _ in range(100):
        alpha = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        beta = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        m = operator_matrix(RotationOperator(alpha, beta), 24)
        full = characterize_isometry(m, circles, SupFamily(), rng=np.random.default_rng(1))
        worst = max(worst, abs(full.scalar_alpha - alpha) + abs(full.scalar_beta - beta))
        for fam in (HpFamily(1), HpFamily(3)):
            ch = characterize_isometry(m, hp_circles, fam, rng=np.random.default_rng(1))
            worst = max(worst, abs(ch.scalar_alpha - alpha) + abs(ch.scalar_beta - beta))
        sub = characterize_isometry(m, sub_circles, SupFamily(), rng=np.random.default_rng(1))
        assert sub.scalar_alpha == full.scalar_alpha
        assert sub.scalar_beta == full.scalar_beta
    assert worst < 1e-10, f"worst symbol error {worst:.2e}"
    with pytest.raises(NotCharacterizable) as exc_info:
        characterize_isometry(MatrixOperator(2 * np.eye(8)), circles, SupFamily())
    assert exc_info.value.check == "unimodularity"


def test_09_three_circle_slack_and_rigidity():
    rng = np.random.default_rng(131)
    min_slack = np.inf
    for _ in range(1000):
        f = random_taylor(rng, int(rng.integers(1, 25)), min_significant=2)
        rep = three_circle_check(f, 0.25, 0.5, 0.75)
        min_slack = min(min_slack, rep.slack)
        assert not rep.monomial
        assert not rep.rigidity_flag  # no false positives
    assert min_slack >= -1e-12, f"min slack {min_slack:.2e}"
    for _ in range(50):
        k = int(rng.integers(0, 21))
        c = float(rng.uniform(0.1, 10.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rep = three_circle_check(TaylorFunction((0.0,) * k + (complex(c),)), 0.25, 0.5, 0.75)
        assert rep.monomial
        assert rep.rigidity_flag  # no false negatives
        assert abs(rep.slack) <= 1e-10


def test_10_symbol_roundtrip_interval_and_disc():
    rng = np.random.default_rng(137)
    exh = Exhaustion1D.default(3)
    grid = IntervalGrid.build(exh, 2048)
    for i in range(50):
        orientation = "increasing" if i % 2 == 0 else "decreasing"
        h = unimodular_field(grid, rng)
        phi = random_interval_homeo(exh, rng, orientation)
        T = make_composition_operator(h, phi)
        sym = recover_weight_and_map(T, exh, grid, rng=rng)
        assert np.max(np.abs(sym.weight.array - h.array)) < 1e-12
        assert np.max(np.abs(sym.point_map.array - phi(grid.array))) <= grid.cell
        if orientation == "decreasing":
            recovered = sym.point_map.array.real
            for a, b in exh.intervals:
                assert phi(np.array([a]))[0] == b  # endpoints swap exactly
                ia = int(np.argmin(np.abs(grid.array - a)))
                assert abs(recovered[ia] - b) <= grid.cell

    dexh = ExhaustionDisc.default()
    dgrid = DiscGrid.build(dexh, 128, 256)
    for _ in range(50):
        h = unimodular_field(dgrid, rng)
        phi = random_annulus_homeo(dexh, rng)
        mapped = phi(dgrid.nodes)
        assert np.max(np.abs(np.abs(mapped) - np.abs(dgrid.nodes))) <= 1e-12
        T = make_composition_operator(h, phi)
        sym = recover_weight_and_map(T, dexh, dgrid, rng=rng)
        assert np.max(np.abs(sym.weight.array - h.array)) < 1e-12
        assert np.max(np.abs(sym.point_map.array - mapped)) <= dgrid.cell
    # one pass at the default grid resolution as well
    big = DiscGrid.build(dexh)
    h = unimodular_field(big, rng)
    phi = random_annulus_homeo(dexh, rng)
    sym = recover_weight_and_map(make_composition_operator(h, phi), dexh, big, rng=rng)
    assert np.max(np.abs(sym.weight.array - h.array)) < 1e-12
    assert np.max(np.abs(sym.point_map.array - phi(big.nodes))) <= big.cell


def test_11_zigzag_fold_is_isometric_not_composition():
    rng = np.random.default_rng(139)
    exh = Exhaustion1D.default(3)
    grid = IntervalGrid.build(exh, 2048)
    zig = build_zigzag_fold(exh, grid)
    T = make_composition_operator(GridFunction.constant(grid, 1.0), zig)
    probes = [
        GridFunction.constant(grid, 1.0),
        GridFunction.coordinate(grid),
    ] + [random_probe(grid, rng) for _ in range(20)]

    iso = isometry_test_grid(T, exh, probes)
    assert iso.passed

    with pytest.raises(NotWeightedComposition) as exc_info:
        recover_weight_and_map(T, exh, grid, rng=rng)
    assert exc_info.value.check == "injectivity"
    assert exc_info.value.certificate["collapsed_pairs"] > 0

    rep = decomposition_bound_check(T, exh, probes[2:])
    assert rep.passed
    assert rep.worst_slack >= 0.0


def test_12_cli_reports_are_deterministic(tmp_path, capsys):
    runs = [
        ("theta-check", ["--gauge", "clip"]),
        ("separate", []),
        ("recover-measure", []),
        ("three-circle", ["--monomial", "3"]),
        ("hol-characterize", ["--op", "rotation"]),
        ("cu-decomp-bound", ["--grid-count", "1024"]),
    ]
    for sub, extra in runs:
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}-{tag}"
            cli_main([sub, *extra, "--seed", "9", "--out", str(out)])
            capsys.readouterr()
            blobs.append((out / f"{sub}-report.txt").read_bytes())
        assert blobs[0] == blobs[1], f"{sub} reports differ between runs"
    # same claim through the real console entry point
    texts = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "isolab", "theta-check", "--gauge", "exp", "--seed", "9"],
            capture_output=True,
        )
        assert proc.returncode == 0
        texts.append(proc.stdout)
    assert texts[0] == texts[1]


def test_13_certificates_keep_the_check_order():
    # a certificate holds every value measured up to and including the deciding
    # check, in check order; the grid engine measures containment and
    # surjectivity together before it checks either
    circles = DiscExhaustion.default(3)
    doubling = MatrixOperator(2 * np.eye(16))
    warp = WeightedCompositionOperator(TaylorFunction.one(), TaylorFunction.monomial(2))
    exh = Exhaustion1D.default(3)
    grid = IntervalGrid.build(exh, 2048)
    one = GridFunction.constant(grid, 1.0)
    disc = ["mean_flatness_gap", "constancy_tail", "alpha_modulus_gap"]
    cont = ["unimodularity_gap", "containment_breach", "surjectivity_gap", "collapsed_pairs"]
    refusals = [
        (characterize_isometry, (doubling, circles, SupFamily()), "unimodularity", disc),
        (
            characterize_isometry, (doubling, circles, HpFamily(2)),
            "unimodularity", ["no_theorem_guarantee", *disc],
        ),
        (
            characterize_isometry, (warp, circles, SupFamily()),
            "circle-preservation", [*disc, "circle_preservation_gap"],
        ),
        (
            recover_weight_and_map,
            (make_composition_operator(GridFunction.constant(grid, 2.0), lambda x: x), exh, grid),
            "unimodularity", cont[:1],
        ),
        (
            recover_weight_and_map,
            (make_composition_operator(one, build_zigzag_fold(exh, grid)), exh, grid),
            "injectivity", cont,
        ),
    ]
    for engine, args, check, keys in refusals:
        with pytest.raises((NotCharacterizable, NotWeightedComposition)) as exc_info:
            engine(*args)
        assert (exc_info.value.check, list(exc_info.value.certificate)) == (check, keys)

    rotation = RotationOperator(np.exp(0.4j), np.exp(-1.1j))
    assert list(characterize_isometry(rotation, circles, SupFamily()).certificate) == [
        *disc, "circle_preservation_gap", "linearity_gap", "beta_modulus_gap",
        "reconstruction_gap",
    ]
    assert list(recover_weight_and_map(lambda f: f, exh, grid).certificate) == [
        *cont, "reconstruction_gap", "reconstruction_budget",
    ]


def _nan_injections():
    """check -> (patch as (target, value) or None, engine call, the verdict's field, its
    value, the field that holds the NaN): each case feeds that one check a NaN value."""
    circles = DiscExhaustion.default(3)
    rotation = RotationOperator(np.exp(0.4j), np.exp(-1.1j))
    overflowing = np.eye(9)  # column 1 = (0, 1.7e308 x4, 0, ...): NaN circle samples
    overflowing[:, 1] = 0.0
    overflowing[1:5, 1] = 1.7e308
    exh = Exhaustion1D.default(3)
    grid = IntervalGrid.build(exh, 2048)

    def identity(f):
        return f

    def probes():
        rng = np.random.default_rng(3)
        return [random_probe(grid, rng) for _ in range(3)]

    return {
        "mean-flatness": (
            ("isolab.holodisc._circle_values", lambda c, r, q: np.full((r.size, q), np.nan + 0j)),
            lambda: characterize_isometry(rotation, circles, SupFamily()),
            "failed_check", "mean-flatness", "certificate.mean_flatness_gap",
        ),
        "circle-preservation": (
            None,
            lambda: characterize_isometry(MatrixOperator(overflowing), circles, SupFamily()),
            "failed_check", "circle-preservation", "certificate.circle_preservation_gap",
        ),
        "containment": (
            ("isolab.contspace._image_gaps", lambda *args: (np.nan, np.nan, None)),
            lambda: recover_weight_and_map(identity, exh, grid),
            "failed_check", "containment", "certificate.containment_breach",
        ),
        "reconstruction": (
            ("isolab.contspace.GridFunction.lipschitz_estimate", lambda self: np.nan),
            lambda: recover_weight_and_map(identity, exh, grid),
            "failed_check", "reconstruction", "certificate.reconstruction_budget",
        ),
        "residual": (
            ("isolab.recovery.least_squares", lambda x0, lo, hi, data: SimpleNamespace(
                x=np.where(np.arange(x0.size) == 0, np.nan, x0), nfev=1)),  # a NaN position
            lambda: roundtrip_check(make_builtin_gauge("exp"), LogMeasure((0.4,), (0.6,)),
                                    RecoverySpec(), 1),
            "failed_check", "residual", "certificate.residual",
        ),
        "decomposition-bound": (
            ("isolab.contspace.interpolation_budget", lambda probes, cell: np.nan),
            lambda: decomposition_bound_check(identity, exh, probes()),
            "passed", False, "worst_slack",
        ),
    }


@pytest.mark.parametrize("case", list(_nan_injections()))
def test_14_a_nan_value_never_passes_a_check(case, monkeypatch):
    # a check passes only when its value is within its bound, so a NaN refuses or fails
    patch, run, field, value, nan_field = _nan_injections()[case]
    if patch is not None:
        monkeypatch.setattr(*patch)
    try:
        rec = run().as_record()
    except (NotCharacterizable, NotWeightedComposition) as exc:
        rec = exc.as_record()
    assert rec.get(field) == value and np.isnan(rec[nan_field])
