"""Batch experiment runner: one subcommand per laboratory capability.

Every run resolves to an ExperimentConfig (JSON-serializable, bit-exact
round-trip) and emits a flat key=value report, deterministic for a given
config and seed.  Exit status 0 means the run's claim held, 1 means the
computation finished with a finding (an inequality violated, a recovery
refused), and 2 means the input was invalid.

One parameter table, _PARAMS, with the keys each subcommand takes, drives
the flags, the checking of config files and the defaults handlers read.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import contspace, holodisc, io_formats, metric, recovery
from .gauges import (
    check_admissibility,
    clipped_square_gauge,
    frullani_integral,
    make_builtin_gauge,
)
from .quadrature import QuadratureError, QuadratureSpec

__all__ = ["ExperimentConfig", "main", "build_parser"]

PASS, FINDING, INVALID = 0, 1, 2


class CliError(ValueError):
    """Invalid input; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved inputs of one run; serializes bit-exactly to JSON."""

    subcommand: str
    seed: int = 0
    tol: float = 1e-9
    out: str | None = None
    params: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return io_formats.canonical_json(
            {
                "subcommand": self.subcommand,
                "seed": self.seed,
                "tol": self.tol,
                "out": self.out,
                "params": self.params,
            }
        )

    def echo_json(self) -> str:
        """Config form embedded in reports: paths stripped, inputs kept."""
        return io_formats.canonical_json(
            {
                "subcommand": self.subcommand,
                "seed": self.seed,
                "tol": self.tol,
                "params": self.params,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        return cls(
            subcommand=raw["subcommand"],
            seed=raw["seed"],
            tol=raw["tol"],
            out=raw.get("out"),
            params=raw.get("params", {}),
        )


def _parse_floats(text: str, flag: str):
    try:
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise CliError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc
    if not vals:
        raise CliError(f"{flag}: empty list")
    if not np.all(np.isfinite(vals)):
        raise CliError(f"{flag}: values must be finite, got {text!r}")
    return np.array(vals)


def _gauge_from(params) -> object:
    name = params["gauge"]
    if name == "clipsq":
        return clipped_square_gauge()
    try:
        return make_builtin_gauge(name, alpha=params["alpha"])
    except ValueError as exc:
        raise CliError(f"gauge: {exc}") from exc


def _out_dir(cfg: ExperimentConfig) -> Path | None:
    if cfg.out is None:
        return None
    p = Path(cfg.out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _report(cfg: ExperimentConfig, record: dict) -> str:
    body = dict(record)
    body["config"] = cfg.echo_json()
    text = io_formats.render_record(body)
    out = _out_dir(cfg)
    if out is not None:
        (out / f"{cfg.subcommand}-report.txt").write_text(text)
    return text


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, record)
# ---------------------------------------------------------------------------


def _run_theta_check(cfg: ExperimentConfig, params):
    g = _gauge_from(params)
    rep = check_admissibility(g)
    rec = rep.as_record()
    return (PASS if rep.all_pass else FINDING), rec


def _selftest_theta_check(cfg: ExperimentConfig):
    rec = {}
    ok = True
    for name in ("clip", "rational", "exp"):
        rep = check_admissibility(make_builtin_gauge(name))
        rec[f"{name}.all_pass"] = rep.all_pass
        ok = ok and rep.all_pass
    counter = check_admissibility(clipped_square_gauge())
    rec["clipsq.subadditive"] = counter.check("subadditive").passed
    rec["clipsq.all_pass"] = counter.all_pass
    ok = ok and not counter.check("subadditive").passed
    return (PASS if ok else FINDING), rec


def _run_frullani(cfg: ExperimentConfig, params):
    g = _gauge_from(params)
    rho = params["rho"]
    if rho <= 1.0:
        raise CliError("rho: must exceed 1")
    spec = QuadratureSpec(tol=min(cfg.tol, 1e-7))
    value = frullani_integral(g, rho, spec)
    target = float(np.log(rho))
    err = abs(value - target)
    rec = {"gauge": g.name, "rho": rho, "value": value, "target": target, "error": err}
    return (PASS if err < max(cfg.tol, 1e-6) else FINDING), rec


def _selftest_frullani(cfg: ExperimentConfig):
    rec = {}
    ok = True
    for name in ("clip", "exp"):
        g = make_builtin_gauge(name)
        v = frullani_integral(g, 2.0, QuadratureSpec(tol=1e-8))
        e = abs(v - float(np.log(2.0)))
        rec[f"{name}.error"] = e
        ok = ok and e < 1e-6
    return (PASS if ok else FINDING), rec


def _weights_from(params) -> metric.WeightSequence:
    spec = params["weights"]
    tail = params["tail"]
    if spec.startswith("uniform:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"weights: bad uniform count in {spec!r}") from exc
        return metric.WeightSequence.uniform(n, declared_tail=tail)
    vals = _parse_floats(spec, "weights")
    return metric.WeightSequence(tuple(vals), declared_tail=tail)


def _run_separate(cfg: ExperimentConfig, params):
    g = _gauge_from(params)
    r = _weights_from(params)
    a = metric.SeminormVector(tuple(_parse_floats(params["vec_a"], "vec_a")))
    b = metric.SeminormVector(tuple(_parse_floats(params["vec_b"], "vec_b")))
    if len(a) != len(r) or len(b) != len(r):
        raise CliError("vec_a/vec_b: length must match the weight count")
    res = metric.separate(g, r, a, b)
    rec = res.as_record()
    rec["gauge"] = g.name
    return (PASS if res.verdict == "separated" else FINDING), rec


def _selftest_separate(cfg: ExperimentConfig):
    g = make_builtin_gauge("clip")
    r = metric.WeightSequence.uniform(2)
    a = metric.SeminormVector((1.0, 2.0))
    b = metric.SeminormVector((1.0, 3.0))
    res = metric.separate(g, r, a, b)
    curve_gap = abs(
        metric.moment_curve(g, r, a, 0.25) - metric.moment_curve(g, r, b, 0.25)
    )
    same = metric.separate(g, r, a, a)
    rec = {
        "distinct.verdict": res.verdict,
        "distinct.gap": res.gap,
        "gap_at_quarter": curve_gap,
        "equal.verdict": same.verdict,
    }
    ok = (
        res.verdict == "separated"
        and curve_gap >= 0.125 - 1e-12
        and same.verdict == "not_separated"
    )
    return (PASS if ok else FINDING), rec


def _run_recover_measure(cfg: ExperimentConfig, params):
    g = _gauge_from(params)
    positions = _parse_floats(params["positions"], "positions")
    masses = _parse_floats(params["masses"], "masses")
    if positions.size != masses.size:
        raise CliError("masses: need one mass per position")
    order = np.argsort(positions)
    try:
        nu = recovery.LogMeasure(tuple(positions[order]), tuple(masses[order]))
    except ValueError as exc:
        raise CliError(f"positions/masses: {exc}") from exc
    budget = params["atom_budget"]
    if budget is None:
        budget = positions.size
    rep = recovery.roundtrip_check(g, nu, recovery.RecoverySpec(), budget)
    rec = rep.as_record()
    rec["gauge"] = g.name
    return (PASS if rep.passed else FINDING), rec


def _selftest_recover_measure(cfg: ExperimentConfig):
    g = make_builtin_gauge("exp")
    nu = recovery.LogMeasure((0.0,), (0.5,))
    rep = recovery.roundtrip_check(g, nu, recovery.RecoverySpec(), 1)
    rec = {
        "single_atom.position_error": rep.max_position_error,
        "single_atom.mass_error": rep.max_mass_error,
        "single_atom.passed": rep.passed,
    }
    return (PASS if rep.passed else FINDING), rec


def _taylor_from(params, rng) -> holodisc.TaylorFunction:
    path = params["taylor_file"]
    if path is not None:
        try:
            return holodisc.TaylorFunction(io_formats.taylor_from_text(Path(path).read_text()))
        except (OSError, ValueError) as exc:
            raise CliError(f"taylor_file: {exc}") from exc
    if params["monomial"] is not None:
        return holodisc.TaylorFunction.monomial(params["monomial"])
    degree = params["degree"]
    if degree < 0:
        raise CliError("degree: must be nonnegative")
    return holodisc.random_taylor(rng, degree, min_significant=2)


def _family_from(params):
    fam = params["family"]
    if fam == "sup":
        return holodisc.SupFamily()
    if fam == "hp":
        return holodisc.HpFamily(params["p"])
    raise CliError(f"family: unknown family {fam!r}")


def _disc_operator_from(params):
    kind = params["op"]
    if kind == "rotation":
        alpha = np.exp(1j * params["alpha_angle"])
        beta = np.exp(1j * params["beta_angle"])
        return holodisc.RotationOperator(alpha, beta)
    if kind == "scale":
        factor = complex(params["factor"])
        return holodisc.MatrixOperator(tuple(tuple(factor * (i == j) for j in range(16)) for i in range(16)))
    if kind == "squarewarp":
        return holodisc.WeightedCompositionOperator(
            holodisc.TaylorFunction.one(), holodisc.TaylorFunction.monomial(2)
        )
    if kind == "matrix":
        path = params["op_file"]
        if path is None:
            raise CliError("op_file: required for op=matrix")
        try:
            lines = [
                ln for ln in Path(path).read_text().splitlines()
                if ln.strip() and not ln.startswith("#")
            ]
            if not lines:
                raise ValueError("file holds no data rows")
            count = len(lines[0].split())
            cols = io_formats.read_columns(path, count)
        except (OSError, ValueError) as exc:
            raise CliError(f"op_file: {exc}") from exc
        arr = np.column_stack(cols)
        if arr.shape[1] % 2 != 0 or arr.shape[0] * 2 != arr.shape[1]:
            raise CliError("op_file: expected n rows of 2n floats (re/im pairs)")
        m = arr[:, 0::2] + 1j * arr[:, 1::2]
        return holodisc.MatrixOperator(tuple(tuple(row) for row in m))
    raise CliError(f"op: unknown operator kind {kind!r}")


def _run_hol_iso_test(cfg: ExperimentConfig, params):
    rng = np.random.default_rng(cfg.seed)
    op = _disc_operator_from(params)
    family = _family_from(params)
    exh = holodisc.DiscExhaustion.default(params["levels"])
    probes = holodisc.standard_probes(rng, count=3, degree=params["degree"])
    rep = holodisc.isometry_test(op, family, exh, probes, tol=max(cfg.tol, 1e-11))
    return (PASS if rep.passed else FINDING), rep.as_record()


def _selftest_hol_iso_test(cfg: ExperimentConfig):
    exh = holodisc.DiscExhaustion.default(3)
    probes = holodisc.standard_probes(np.random.default_rng(0))
    rot = holodisc.RotationOperator(1j, -1.0)
    r1 = holodisc.isometry_test(rot, holodisc.SupFamily(), exh, probes, tol=1e-12)
    doubled = holodisc.MatrixOperator(tuple(tuple(2.0 * (i == j) for j in range(12)) for i in range(12)))
    r2 = holodisc.isometry_test(doubled, holodisc.SupFamily(), exh, probes)
    rec = {"rotation.max_gap": r1.max_gap, "rotation.passed": r1.passed, "doubled.passed": r2.passed}
    return (PASS if r1.passed and not r2.passed else FINDING), rec


def _run_hol_characterize(cfg: ExperimentConfig, params):
    rng = np.random.default_rng(cfg.seed)
    op = _disc_operator_from(params)
    family = _family_from(params)
    exh = holodisc.DiscExhaustion.default(params["levels"])
    try:
        ch = holodisc.characterize_isometry(op, exh, family, rng=rng)
    except holodisc.NotCharacterizable as exc:
        return FINDING, {"characterizable": False, "failed_check": exc.check}
    rec = {"characterizable": True}
    rec.update(ch.as_record())
    return PASS, rec


def _selftest_hol_characterize(cfg: ExperimentConfig):
    exh = holodisc.DiscExhaustion.default(3)
    ident = holodisc.characterize_isometry(
        lambda f: f, exh, holodisc.SupFamily(), rng=np.random.default_rng(0)
    )
    try:
        holodisc.characterize_isometry(
            lambda f: f.scaled(2.0), exh, holodisc.SupFamily(), rng=np.random.default_rng(0)
        )
        doubled_check = "none"
    except holodisc.NotCharacterizable as exc:
        doubled_check = exc.check
    rec = {
        "identity.alpha": ident.scalar_alpha,
        "identity.beta": ident.scalar_beta,
        "doubled.failed_check": doubled_check,
    }
    ok = (
        abs(ident.scalar_alpha - 1) < 1e-12
        and abs(ident.scalar_beta - 1) < 1e-12
        and doubled_check == "unimodularity"
    )
    return (PASS if ok else FINDING), rec


def _run_three_circle(cfg: ExperimentConfig, params):
    rng = np.random.default_rng(cfg.seed)
    f = _taylor_from(params, rng)
    radii = _parse_floats(params["radii"], "radii")
    if radii.size != 3:
        raise CliError("radii: need exactly three radii")
    try:
        rep = holodisc.three_circle_check(f, *radii)
    except ValueError as exc:
        raise CliError(f"radii: {exc}") from exc
    rec = rep.as_record()
    rec["degree"] = f.degree
    return (PASS if rep.slack >= -1e-12 else FINDING), rec


def _selftest_three_circle(cfg: ExperimentConfig):
    mono = holodisc.three_circle_check(holodisc.TaylorFunction.monomial(3, 5.0), 0.25, 0.5, 0.75)
    strict = holodisc.three_circle_check(holodisc.TaylorFunction((1.0, 1.0)), 0.25, 0.5, 0.75)
    ones = holodisc.three_circle_check(holodisc.TaylorFunction.one(), 0.25, 0.5, 0.75)
    rec = {
        "monomial.slack": mono.slack,
        "monomial.rigidity": mono.rigidity_flag,
        "binomial.slack": strict.slack,
        "binomial.rigidity": strict.rigidity_flag,
        "constant.rigidity": ones.rigidity_flag,
    }
    ok = (
        mono.rigidity_flag
        and ones.rigidity_flag
        and not strict.rigidity_flag
        and strict.slack > 0
    )
    return (PASS if ok else FINDING), rec


def _grid_setup(params):
    domain = params["domain"]
    if domain == "interval":
        exh = contspace.Exhaustion1D.default(params["levels"])
        grid = contspace.IntervalGrid.build(exh, params["grid_count"])
    elif domain == "disc":
        exh = contspace.ExhaustionDisc.default()
        grid = contspace.DiscGrid.build(exh, params["radial_count"], params["angle_count"])
    else:
        raise CliError(f"domain: unknown domain {domain!r}")
    return domain, exh, grid


def _grid_operator(params, domain, exh, grid, rng):
    kind = params["map"]
    weight = params["weight"]
    if weight == "random":
        h = contspace.unimodular_field(grid, rng)
    elif weight == "constant":
        h = contspace.GridFunction.constant(grid, 1.0)
    else:
        raise CliError(f"weight: unknown weight {weight!r}")
    if kind == "identity":
        phi = (lambda x: x)
    elif kind == "random":
        if domain == "interval":
            orientation = params["orientation"]
            if orientation not in ("increasing", "decreasing"):
                raise CliError(f"orientation: {orientation!r}")
            phi = contspace.random_interval_homeo(exh, rng, orientation)
        else:
            phi = contspace.random_annulus_homeo(exh, rng)
    elif kind == "zigzag":
        if domain != "interval":
            raise CliError("map: zigzag is interval-only")
        phi = contspace.build_zigzag_fold(exh, grid)
    elif kind == "twist":
        if domain != "disc":
            raise CliError("map: twist is disc-only")
        phi = contspace.build_annulus_homeo(
            exh, {1: [(exh.radii[0], 0.0), (exh.radii[1], np.pi)]}
        )
    else:
        raise CliError(f"map: unknown map {kind!r}")
    return contspace.make_composition_operator(h, phi), h, phi


def _grid_probes(grid, rng, count=4):
    probes = [
        contspace.GridFunction.constant(grid, 1.0),
        contspace.GridFunction.coordinate(grid),
    ]
    probes += [contspace.random_probe(grid, rng) for _ in range(count)]
    return probes


def _run_cu_iso_test(cfg: ExperimentConfig, params):
    rng = np.random.default_rng(cfg.seed)
    domain, exh, grid = _grid_setup(params)
    T, _, _ = _grid_operator(params, domain, exh, grid, rng)
    rep = contspace.isometry_test_grid(T, exh, _grid_probes(grid, rng), tol=cfg.tol)
    rec = rep.as_record()
    rec["domain"] = domain
    return (PASS if rep.passed else FINDING), rec


def _selftest_cu_iso_test(cfg: ExperimentConfig):
    exh = contspace.Exhaustion1D.default(2)
    grid = contspace.IntervalGrid.build(exh, 1024)
    probes = _grid_probes(grid, np.random.default_rng(0), count=2)
    ident = contspace.isometry_test_grid(lambda f: f, exh, probes)
    zero = contspace.isometry_test_grid(
        lambda f: contspace.GridFunction.constant(grid, 0.0), exh, probes
    )
    rec = {"identity.passed": ident.passed, "zero.passed": zero.passed}
    return (PASS if ident.passed and not zero.passed else FINDING), rec


def _run_cu_recover(cfg: ExperimentConfig, params):
    rng = np.random.default_rng(cfg.seed)
    domain, exh, grid = _grid_setup(params)
    T, h, phi = _grid_operator(params, domain, exh, grid, rng)
    try:
        rec_sym = contspace.recover_weight_and_map(T, exh, grid, tol=cfg.tol, rng=rng)
    except contspace.NotWeightedComposition as exc:
        rec = {"recovered": False, "failed_check": exc.check}
        rec.update({f"certificate.{k}": v for k, v in sorted(exc.certificate.items())})
        return FINDING, rec
    rec = {"recovered": True, "domain": domain}
    rec["weight_error"] = float(np.max(np.abs(rec_sym.weight.array - h.array)))
    rec.update(rec_sym.as_record())
    out = _out_dir(cfg)
    if out is not None:
        _write_grid_function(out / "recovered-weight.txt", rec_sym.weight)
        _write_grid_function(out / "recovered-map.txt", rec_sym.point_map)
    return PASS, rec


def _selftest_cu_recover(cfg: ExperimentConfig):
    exh = contspace.Exhaustion1D.default(2)
    grid = contspace.IntervalGrid.build(exh, 1024)
    rec_sym = contspace.recover_weight_and_map(lambda f: f, exh, grid)
    h_gap = float(np.max(np.abs(rec_sym.weight.array - 1.0)))
    phi_gap = float(np.max(np.abs(rec_sym.point_map.array - grid.array)))
    rec = {"identity.h_gap": h_gap, "identity.phi_gap": phi_gap}
    return (PASS if h_gap < 1e-12 and phi_gap < 1e-12 else FINDING), rec


def _run_cu_decomp_bound(cfg: ExperimentConfig, params):
    rng = np.random.default_rng(cfg.seed)
    domain, exh, grid = _grid_setup(params)
    T, _, _ = _grid_operator(params, domain, exh, grid, rng)
    probes = [contspace.random_probe(grid, rng) for _ in range(params["probes"])]
    rep = contspace.decomposition_bound_check(T, exh, probes, tol=cfg.tol)
    rec = rep.as_record()
    rec["domain"] = domain
    return (PASS if rep.passed else FINDING), rec


def _selftest_cu_decomp_bound(cfg: ExperimentConfig):
    exh = contspace.Exhaustion1D.default(2)
    grid = contspace.IntervalGrid.build(exh, 1024)
    probes = [contspace.random_probe(grid, np.random.default_rng(0)) for _ in range(3)]
    rep = contspace.decomposition_bound_check(lambda f: f, exh, probes)
    rec = {"identity.worst_slack": rep.worst_slack, "identity.dual_norm_max": rep.dual_norm_max}
    return (PASS if rep.passed else FINDING), rec


def _write_grid_function(path: Path, gf: contspace.GridFunction):
    v = gf.array
    if gf.domain == "interval":
        x = gf.grid.array
        io_formats.write_columns(path, x, v.real, v.imag)
    else:
        nodes = gf.grid.nodes
        io_formats.write_columns(
            path, nodes.real.ravel(), nodes.imag.ravel(), v.real.ravel(), v.imag.ravel()
        )


def _run_emit_figure(cfg: ExperimentConfig, params):
    which = params["which"]
    out = _out_dir(cfg)
    if out is None:
        raise CliError("out: emit-figure requires an output directory")
    if which == "fig1":
        t = np.arange(501) / 100.0
        cols = [
            t,
            make_builtin_gauge("clip")(t),
            make_builtin_gauge("exp")(t),
            make_builtin_gauge("rational")(t),
        ]
        io_formats.write_csv(
            out / "fig1-gauges.csv",
            ["t", "theta_clip", "theta_exp", "theta_rational1"],
            cols,
        )
        rec = {"which": which, "rows": int(t.size), "clip_at_one": float(cols[1][100])}
        return (PASS if rec["clip_at_one"] == 1.0 else FINDING), rec
    if which == "fig2":
        exh = contspace.Exhaustion1D(((0.5, 0.5), (0.2, 0.8)))
        inc = contspace.build_interval_homeo(
            exh, "increasing", [(0.35, 0.28), (0.65, 0.72)]
        )
        dec = contspace.build_interval_homeo(exh, "decreasing")
        for name, homeo in (("increasing", inc), ("decreasing", dec)):
            io_formats.write_csv(
                out / f"fig2-{name}.csv",
                ["x", "y"],
                [np.asarray(homeo.xs), np.asarray(homeo.ys)],
            )
        fixed = [0.2, 0.5, 0.8]
        gaps = [abs(float(inc(x)) - x) for x in fixed]
        gaps.append(abs(float(dec(0.5)) - 0.5))
        rec = {"which": which, "fixed_points_gap": max(gaps)}
        return (PASS if rec["fixed_points_gap"] < 1e-12 else FINDING), rec
    if which == "fig3":
        exh = contspace.ExhaustionDisc.default()
        tw = contspace.build_annulus_homeo(
            exh, {1: [(exh.radii[0], 0.0), (exh.radii[1], np.pi)]}
        )
        circle_r = [0.25, 0.4, 0.55, 0.7, 0.8]
        theta = 2.0 * np.pi * np.arange(64) / 64.0
        rows = []
        for r in circle_r:
            z = r * np.exp(1j * theta)
            w = tw(z)
            rows.append((np.full(theta.size, r), theta, z.real, z.imag, w.real, w.imag))
        cols = [np.concatenate([row[j] for row in rows]) for j in range(6)]
        io_formats.write_csv(
            out / "fig3-field.csv",
            ["circle_r", "theta", "x_before", "y_before", "x_after", "y_after"],
            cols,
        )
        io_formats.write_csv(
            out / "fig3-profile.csv",
            ["r", "twist"],
            [np.asarray(tw.twist_breaks), np.asarray(tw.twist_values)],
        )
        gap = 0.0
        for r in exh.radii:
            z = r * np.exp(1j * theta)
            gap = max(gap, float(np.max(np.abs(np.abs(tw(z)) - r))))
        rec = {"which": which, "circle_gap": gap}
        return (PASS if gap < 1e-12 else FINDING), rec
    raise CliError(f"which: unknown figure {which!r}")


def _selftest_emit_figure(cfg: ExperimentConfig):
    if cfg.out is None:
        cfg = ExperimentConfig(cfg.subcommand, cfg.seed, cfg.tol, ".", cfg.params)
    codes = []
    rec = {}
    for which in ("fig1", "fig2", "fig3"):
        code, sub_rec = _run_emit_figure(cfg, {"which": which})
        codes.append(code)
        rec.update({f"{which}.{k}": v for k, v in sub_rec.items() if k != "which"})
    return (PASS if all(c == PASS for c in codes) else FINDING), rec


# key -> (type, default, help); flags and config files pass the same check
_PARAMS = {
    "gauge": (str, "clip", "builtin gauge: clip, rational, exp, or clipsq"),
    "alpha": (float, 1.0, "exponent for the rational gauge"),
    "rho": (float, 2.0, "Frullani ratio (must exceed 1)"),
    "weights": (str, "uniform:2", "comma-separated weights or uniform:N"),
    "tail": (float, 0.0, "declared tail mass of the weight sequence"),
    "vec_a": (str, "1,2", "first seminorm vector, comma-separated"),
    "vec_b": (str, "1,3", "second seminorm vector, comma-separated"),
    "positions": (str, "0.0", "true atom positions (log scale)"),
    "masses": (str, "0.5", "true atom masses"),
    "atom_budget": (int, None, "maximum atoms for recovery (default: one per position)"),
    "op": (str, "rotation", "operator kind: rotation, scale, squarewarp, matrix"),
    "op_file": (str, None, "columnar matrix file for op=matrix"),
    "alpha_angle": (float, np.pi / 3, "rotation alpha = exp(i angle)"),
    "beta_angle": (float, float(np.sqrt(2.0)), "rotation beta = exp(i angle)"),
    "factor": (float, 2.0, "scaling factor for op=scale"),
    "family": (str, "sup", "seminorm family: sup or hp"),
    "p": (float, 1.0, "exponent for the hp family"),
    "levels": (int, 3, "number of exhaustion levels"),
    "degree": (int, 8, "degree of random polynomials"),
    "taylor_file": (str, None, "coefficient file (re im per line)"),
    "monomial": (int, None, "use the monomial z^k as the input"),
    "radii": (str, "0.25,0.5,0.75", "three circle radii, comma-separated"),
    "domain": (str, "interval", "grid domain: interval or disc"),
    "orientation": (str, "increasing", "interval homeomorphism orientation"),
    "map": (str, "random", "point map: identity, random, zigzag, or twist"),
    "weight": (str, "random", "weight field: random or constant"),
    "grid_count": (int, 4096, "interval grid node count"),
    "radial_count": (int, 256, "disc grid radius count"),
    "angle_count": (int, 512, "disc grid angle count"),
    "probes": (int, 20, "number of random probes"),
    "which": (str, "fig1", "figure to emit: fig1, fig2, or fig3"),
}
_GAUGE = ("gauge", "alpha")
_DISC = ("op", "op_file", "alpha_angle", "beta_angle", "factor", "family", "p", "levels")
_GRID = (
    "domain", "levels", "grid_count", "radial_count", "angle_count",
    "map", "weight", "orientation",
)

# subcommand -> (run, selftest, parameter keys)
_HANDLERS = {
    "theta-check": (_run_theta_check, _selftest_theta_check, _GAUGE),
    "frullani": (_run_frullani, _selftest_frullani, _GAUGE + ("rho",)),
    "separate": (
        _run_separate, _selftest_separate, _GAUGE + ("weights", "tail", "vec_a", "vec_b")
    ),
    "recover-measure": (
        _run_recover_measure, _selftest_recover_measure,
        _GAUGE + ("positions", "masses", "atom_budget"),
    ),
    "hol-iso-test": (_run_hol_iso_test, _selftest_hol_iso_test, _DISC + ("degree",)),
    "hol-characterize": (_run_hol_characterize, _selftest_hol_characterize, _DISC),
    "three-circle": (
        _run_three_circle, _selftest_three_circle, ("taylor_file", "monomial", "degree", "radii")
    ),
    "cu-iso-test": (_run_cu_iso_test, _selftest_cu_iso_test, _GRID),
    "cu-recover": (_run_cu_recover, _selftest_cu_recover, _GRID),
    "cu-decomp-bound": (_run_cu_decomp_bound, _selftest_cu_decomp_bound, _GRID + ("probes",)),
    "emit-figure": (_run_emit_figure, _selftest_emit_figure, ("which",)),
}
_DEFAULT_OVERRIDES = {
    "recover-measure": {"gauge": "rational", "alpha": 2.0},
    "cu-decomp-bound": {"map": "zigzag"},
}


def _defaults(subcommand: str) -> dict:
    values = {key: _PARAMS[key][1] for key in _HANDLERS[subcommand][2]}
    values.update(_DEFAULT_OVERRIDES.get(subcommand, {}))
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isolab",
        description="Numerical laboratory for seminorm metrics and isometries.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--tol", type=float, default=None, help="tolerance")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--selftest", action="store_true", help="run built-in examples")
        for key, default in _defaults(name).items():
            typ, _, helptext = _PARAMS[key]
            if default is not None:
                helptext = f"{helptext} (default: {default})"
            p.add_argument("--" + key.replace("_", "-"), type=typ, default=None, help=helptext)
    return parser


def _checked(name: str, typ, value):
    """value as typ; a bool, another type or a non-finite float is invalid."""
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, typ) or isinstance(value, bool):
        raise CliError(f"{name}: expected {typ.__name__}, got {value!r}")
    if typ is float and not np.isfinite(value):
        raise CliError(f"{name}: must be finite, got {value!r}")
    return value


def _resolve_config(args) -> ExperimentConfig:
    loaded = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise CliError("config: top level must be a JSON object")
    for key in loaded:
        if key not in ("subcommand", "seed", "tol", "out", "params"):
            raise CliError(f"{key}: unknown config field")
    if loaded.get("subcommand", args.subcommand) != args.subcommand:
        raise CliError(f"subcommand: config is for {loaded['subcommand']!r}")
    top = {"seed": 0, "tol": 1e-9, "out": None}
    top.update({k: loaded[k] for k in top if k in loaded})
    top.update({k: getattr(args, k) for k in top if getattr(args, k) is not None})
    seed = _checked("seed", int, top["seed"])
    if seed < 0:
        raise CliError(f"seed: must be nonnegative, got {seed}")
    out = top["out"] if top["out"] is None else _checked("out", str, top["out"])
    takes = _HANDLERS[args.subcommand][2]
    given = dict(_checked("params", dict, loaded.get("params", {})))
    given.update({k: getattr(args, k) for k in takes if getattr(args, k) is not None})
    params = {}
    for key, value in given.items():
        if key not in takes:
            raise CliError(f"{key}: not a parameter of {args.subcommand}")
        params[key] = _checked(key, _PARAMS[key][0], value)
    return ExperimentConfig(args.subcommand, seed, _checked("tol", float, top["tol"]), out, params)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 after --help
        return exc.code
    try:
        cfg = _resolve_config(args)
        run, selftest, _ = _HANDLERS[cfg.subcommand]
        if args.selftest:
            if cfg.params:
                raise CliError(f"selftest: takes no parameters, got {', '.join(sorted(cfg.params))}")
            code, record = selftest(cfg)
        else:
            code, record = run(cfg, {**_defaults(cfg.subcommand), **cfg.params})
    except (QuadratureError, ValueError) as exc:
        sys.stderr.write(f"error={exc}\n")
        return INVALID
    record["exit_code"] = code
    sys.stdout.write(_report(cfg, record))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
