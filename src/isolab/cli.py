"""Batch experiment runner: one subcommand per laboratory capability.

Every run resolves to an ExperimentConfig and emits a flat key=value
report, deterministic for a given config and seed; the report's config=
line, passed back through --config, reruns it byte for byte.  Exit status
0 means the run's claim held, 1 means the computation finished with a
finding (an inequality violated, a recovery refused), and 2 means the
input was invalid.

One parameter table, _PARAMS, with the keys each subcommand takes, drives
the flags, the checking of config files and the defaults handlers read.
--selftest runs the cases of _SELFTESTS through those same handlers.
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
    QuadratureError,
    check_admissibility,
    clipped_square_gauge,
    frullani_integral,
    make_builtin_gauge,
)

__all__ = ["ExperimentConfig", "main", "build_parser"]

PASS, FINDING, INVALID = 0, 1, 2


class CliError(ValueError):
    """Invalid input; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved inputs of one run."""

    subcommand: str
    seed: int = 0
    tol: float | None = None  # None for a subcommand that reads no tolerance
    out: str | None = None
    params: dict = field(default_factory=dict)

    def echo_json(self) -> str:
        """Config form embedded in reports: paths stripped, inputs kept."""
        echo = {"subcommand": self.subcommand, "seed": self.seed, "params": self.params}
        if self.tol is not None:
            echo["tol"] = self.tol
        return io_formats.canonical_json(echo)


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


def _run_frullani(cfg: ExperimentConfig, params):
    g = _gauge_from(params)
    rho = params["rho"]
    if rho <= 1.0:
        raise CliError("rho: must exceed 1")
    if not cfg.tol > 0:
        raise CliError(f"tol: must be greater than 0 for frullani, got {cfg.tol!r}")
    value = frullani_integral(g, rho, min(cfg.tol, 1e-7))
    target = float(np.log(rho))
    err = abs(value - target)
    rec = {"gauge": g.name, "rho": rho, "value": value, "target": target, "error": err}
    return (PASS if err < max(cfg.tol, 1e-6) else FINDING), rec


def _weights_from(params) -> metric.WeightSequence:
    spec = params["weights"]
    tail = params["tail"]
    if spec.startswith("uniform:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"weights: bad uniform count in {spec!r}") from exc
        build, arg = metric.WeightSequence.uniform, n
    else:
        build, arg = metric.WeightSequence, _parse_floats(spec, "weights")
    try:
        return build(arg, declared_tail=tail)
    except ValueError as exc:
        raise CliError(f"weights/tail: {exc}") from exc


def _vector_from(params, key) -> metric.SeminormVector:
    values = _parse_floats(params[key], key)
    try:
        return metric.SeminormVector(values)
    except ValueError as exc:
        raise CliError(f"{key}: {exc}") from exc


def _run_separate(cfg: ExperimentConfig, params):
    g = _gauge_from(params)
    r = _weights_from(params)
    a, b = (_vector_from(params, key) for key in ("vec_a", "vec_b"))
    if len(a) != len(r) or len(b) != len(r):
        raise CliError("vec_a/vec_b: length must match the weight count")
    try:
        res = metric.separate(g, r, a, b)
    except ValueError as exc:
        raise CliError(f"vec_a/vec_b: {exc}") from exc
    rec = res.as_record()
    rec["gauge"] = g.name
    return (PASS if res.verdict == "separated" else FINDING), rec


def _run_recover_measure(cfg: ExperimentConfig, params):
    g = _gauge_from(params)
    positions = _parse_floats(params["positions"], "positions")
    masses = _parse_floats(params["masses"], "masses")
    if positions.size != masses.size:
        raise CliError("masses: need one mass per position")
    order = np.argsort(positions)
    try:
        nu = recovery.LogMeasure(positions[order], masses[order])
    except ValueError as exc:
        raise CliError(f"positions/masses: {exc}") from exc
    budget = params["atom_budget"]
    if budget is None:
        budget = positions.size
    rep = recovery.roundtrip_check(g, nu, recovery.RecoverySpec(), budget)
    rec = rep.as_record()
    rec["gauge"] = g.name
    return (PASS if rep.passed else FINDING), rec


def _taylor_from(params, rng) -> holodisc.TaylorFunction:
    path = params["taylor_file"]
    if path is not None:
        try:
            cols = io_formats.read_columns(path)
            if len(cols) != 2:
                raise ValueError(f"expected 2 columns (re im), got {len(cols)}")
            return holodisc.TaylorFunction(cols[0] + 1j * cols[1])
        except (OSError, ValueError) as exc:
            raise CliError(f"taylor_file: {exc}") from exc
    if params["monomial"] is not None:
        return holodisc.TaylorFunction.monomial(params["monomial"])
    try:
        return holodisc.random_taylor(rng, params["degree"], min_significant=2)
    except ValueError as exc:
        raise CliError(
            f"degree: must be at least 1 for two significant coefficients ({exc})"
        ) from exc


def _family_from(params):
    fam = params["family"]
    if fam == "sup":
        return holodisc.SupFamily()
    if fam == "hp":
        return holodisc.HpFamily(params["p"])
    raise CliError(f"family: unknown family {fam!r}")


def _disc_operator_from(params, degree):
    """The operator named by params; a matrix must act on probes of the degree."""
    kind = params["op"]
    if kind == "rotation":
        alpha = np.exp(1j * params["alpha_angle"])
        beta = np.exp(1j * params["beta_angle"])
        return holodisc.RotationOperator(alpha, beta)
    if kind == "squarewarp":
        return holodisc.WeightedCompositionOperator(
            holodisc.TaylorFunction.one(), holodisc.TaylorFunction.monomial(2)
        )
    if kind == "scale":
        factor = complex(params["factor"])
        m, short = factor * np.eye(16), "degree"
    elif kind == "matrix":
        path = params["op_file"]
        if path is None:
            raise CliError("op_file: required for op=matrix")
        try:
            cols = io_formats.read_columns(path)
        except (OSError, ValueError) as exc:
            raise CliError(f"op_file: {exc}") from exc
        arr = np.column_stack(cols)
        if arr.shape[1] % 2 != 0 or arr.shape[0] * 2 != arr.shape[1]:
            raise CliError("op_file: expected n rows of 2n floats (re/im pairs)")
        m, short = arr[:, 0::2] + 1j * arr[:, 1::2], "op_file"
    else:
        raise CliError(f"op: unknown operator kind {kind!r}")
    # the probes include z^2, so they reach degree max(degree, 2)
    need = max(degree, 2) + 1
    if m.shape[0] < need:
        raise CliError(
            f"{short}: a {m.shape[0]}x{m.shape[0]} matrix cannot act on probes of "
            f"degree {need - 1}; it needs at least {need}x{need}"
        )
    return holodisc.MatrixOperator(m)


def _matrix_field(params) -> str:
    """The input at fault when a matrix operator's image overflows."""
    return "op_file" if params["op"] == "matrix" else "factor"


def _run_hol_iso_test(cfg: ExperimentConfig, params):
    rng = np.random.default_rng(cfg.seed)
    op = _disc_operator_from(params, params["degree"])
    family = _family_from(params)
    exh = holodisc.DiscExhaustion.default(params["levels"])
    probes = holodisc.standard_probes(rng, degree=params["degree"])
    try:
        rep = holodisc.isometry_test(op, family, exh, probes, tol=max(cfg.tol, 1e-11))
    except OverflowError as exc:
        raise CliError(f"{_matrix_field(params)}: {exc}") from exc
    return (PASS if rep.passed else FINDING), rep.as_record()


def _run_hol_characterize(cfg: ExperimentConfig, params):
    rng = np.random.default_rng(cfg.seed)
    op = _disc_operator_from(params, holodisc.CHARACTERIZE_DEGREE)
    family = _family_from(params)
    exh = holodisc.DiscExhaustion.default(params["levels"])
    try:
        ch = holodisc.characterize_isometry(op, exh, family, rng=rng)
    except holodisc.NotCharacterizable as exc:
        rec = {"characterizable": False, "circle_samples": exc.circle_samples}
        return FINDING, {**rec, **exc.as_record()}
    except OverflowError as exc:
        raise CliError(f"{_matrix_field(params)}: {exc}") from exc
    return PASS, {"characterizable": True, **ch.as_record()}


def _run_three_circle(cfg: ExperimentConfig, params):
    rng = np.random.default_rng(cfg.seed)
    f = _taylor_from(params, rng)
    radii = _parse_floats(params["radii"], "radii")
    if radii.size != 3 or not 0 < radii[0] < radii[1] < radii[2] < 1:
        raise CliError("radii: need three radii with 0 < r1 < r2 < r3 < 1")
    try:
        rep = holodisc.three_circle_check(f, *radii)
    except ValueError as exc:  # the radii are valid, so the function is not
        source = next((k for k in ("taylor_file", "monomial") if params[k] is not None), "degree")
        raise CliError(f"{source}: {exc}") from exc
    rec = rep.as_record()
    rec["degree"] = f.degree
    return (PASS if rep.slack >= -1e-12 else FINDING), rec


def _grid_setup(params):
    """Exhaustion and grid; a grid too coarse to certify is invalid input."""
    domain = params["domain"]
    if domain == "interval":
        exh = contspace.Exhaustion1D.default(params["levels"])
        grid = contspace.IntervalGrid.build(exh, params["grid_count"])
        coarse = "grid_count"
    elif domain == "disc":
        exh = contspace.ExhaustionDisc.default()
        grid = contspace.DiscGrid.build(exh, params["radial_count"], params["angle_count"])
        radial_step = float(np.max(np.diff(grid.radii)))
        coarse = "radial_count" if radial_step >= grid.cell else "angle_count"
    else:
        raise CliError(f"domain: unknown domain {domain!r}")
    try:
        contspace.check_resolution(grid, exh)
    except ValueError as exc:
        raise CliError(f"{coarse}: {exc}") from exc
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
        try:
            phi = contspace.build_zigzag_fold(exh, grid)
        except ValueError as exc:
            raise CliError(f"levels: {exc}") from exc
    elif kind == "twist":
        if domain != "disc":
            raise CliError("map: twist is disc-only")
        phi = contspace.AnnulusHomeo((0.0, *exh.radii), (0.0, 0.0, np.pi))
    else:
        raise CliError(f"map: unknown map {kind!r}")
    return contspace.make_composition_operator(h, phi), h


def _grid_probes(grid, rng):
    """The constant 1, the coordinate and four random probes."""
    probes = [
        contspace.GridFunction.constant(grid, 1.0),
        contspace.GridFunction.coordinate(grid),
    ]
    probes += [contspace.random_probe(grid, rng) for _ in range(4)]
    return probes


def _grid_handler(check):
    """A cu-* handler: build the grid and the operator, run check, and stamp
    every record it returns, a refusal too, with the domain and the
    resolution the report is relative to."""

    def run(cfg: ExperimentConfig, params):
        rng = np.random.default_rng(cfg.seed)
        domain, exh, grid = _grid_setup(params)
        T, h = _grid_operator(params, domain, exh, grid, rng)
        code, rec = check(cfg, params, exh, grid, T, h, rng)
        return code, {**rec, "domain": domain, "cell": grid.cell, "nodes": int(grid.nodes.size)}

    return run


@_grid_handler
def _run_cu_iso_test(cfg, params, exh, grid, T, h, rng):
    rep = contspace.isometry_test_grid(T, exh, _grid_probes(grid, rng), tol=cfg.tol)
    return (PASS if rep.passed else FINDING), rep.as_record()


@_grid_handler
def _run_cu_recover(cfg, params, exh, grid, T, h, rng):
    try:
        rec_sym = contspace.recover_weight_and_map(T, exh, grid, tol=cfg.tol, rng=rng)
    except contspace.NotWeightedComposition as exc:
        return FINDING, {"recovered": False, **exc.as_record()}
    weight_error = float(np.max(np.abs(rec_sym.weight.array - h.array)))
    rec = {"recovered": True, "weight_error": weight_error, **rec_sym.as_record()}
    out = _out_dir(cfg)
    if out is not None:
        _write_grid_function(out / "recovered-weight.txt", rec_sym.weight)
        _write_grid_function(out / "recovered-map.txt", rec_sym.point_map)
    return PASS, rec


@_grid_handler
def _run_cu_decomp_bound(cfg, params, exh, grid, T, h, rng):
    probes = [contspace.random_probe(grid, rng) for _ in range(params["probes"])]
    rep = contspace.decomposition_bound_check(T, exh, probes, tol=cfg.tol)
    return (PASS if rep.passed else FINDING), rep.as_record()


def _write_grid_function(path: Path, gf: contspace.GridFunction):
    """One row per distinct node: its position (x, or x and y on the disc), then Re and Im."""
    nodes, v = gf.grid.nodes, gf.values
    position = (nodes,) if gf.domain == "interval" else (nodes.real, nodes.imag)
    io_formats.write_columns(path, *position, v.real, v.imag)


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
                [homeo.xs, homeo.ys],
            )
        fixed = [0.2, 0.5, 0.8]
        gaps = [abs(float(inc(x)) - x) for x in fixed]
        gaps.append(abs(float(dec(0.5)) - 0.5))
        rec = {"which": which, "fixed_points_gap": max(gaps)}
        return (PASS if rec["fixed_points_gap"] < 1e-12 else FINDING), rec
    if which == "fig3":
        exh = contspace.ExhaustionDisc.default()
        tw = contspace.AnnulusHomeo((0.0, *exh.radii), (0.0, 0.0, np.pi))
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
            [tw.twist_breaks, tw.twist_values],
        )
        gap = 0.0
        for r in exh.radii:
            z = r * np.exp(1j * theta)
            gap = max(gap, float(np.max(np.abs(np.abs(tw(z)) - r))))
        rec = {"which": which, "circle_gap": gap}
        return (PASS if gap < 1e-12 else FINDING), rec
    raise CliError(f"which: unknown figure {which!r}")


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
    "angle_count": (int, 512, "angles on the outer disc-grid ring"),
    "probes": (int, 20, "number of random probes"),
    "which": (str, "fig1", "figure to emit: fig1, fig2, or fig3"),
}
# count or tolerance -> smallest valid value, checked with the type
_MINIMUM = {
    "seed": 0, "tol": 0, "atom_budget": 1, "levels": 1, "degree": 0, "monomial": 0,
    "grid_count": 2, "radial_count": 2, "angle_count": 8, "probes": 1,
}
_GAUGE = ("gauge", "alpha")
_DISC = ("op", "op_file", "alpha_angle", "beta_angle", "factor", "family", "p", "levels")
_GRID = (
    "domain", "levels", "grid_count", "radial_count", "angle_count",
    "map", "weight", "orientation",
)

# subcommand -> (run, parameter keys)
_HANDLERS = {
    "theta-check": (_run_theta_check, _GAUGE),
    "frullani": (_run_frullani, _GAUGE + ("rho",)),
    "separate": (_run_separate, _GAUGE + ("weights", "tail", "vec_a", "vec_b")),
    "recover-measure": (_run_recover_measure, _GAUGE + ("positions", "masses", "atom_budget")),
    "hol-iso-test": (_run_hol_iso_test, _DISC + ("degree",)),
    "hol-characterize": (_run_hol_characterize, _DISC),
    "three-circle": (_run_three_circle, ("taylor_file", "monomial", "degree", "radii")),
    "cu-iso-test": (_run_cu_iso_test, _GRID),
    "cu-recover": (_run_cu_recover, _GRID),
    "cu-decomp-bound": (_run_cu_decomp_bound, _GRID + ("probes",)),
    "emit-figure": (_run_emit_figure, ("which",)),
}
_IDENTITY_GRID = {"map": "identity", "grid_count": 1024}
# subcommand -> ((case, params, expected report items), ...); every case
# expects an exit_code, and a selftest passes when every case gives its items
_SELFTESTS = {
    "theta-check": (
        ("clip", {}, {"exit_code": PASS}),
        ("rational", {"gauge": "rational"}, {"exit_code": PASS}),
        ("exp", {"gauge": "exp"}, {"exit_code": PASS}),
        ("clipsq", {"gauge": "clipsq"}, {"exit_code": FINDING, "subadditive.passed": False}),
    ),
    "frullani": (
        ("clip", {}, {"exit_code": PASS}),
        ("exp", {"gauge": "exp"}, {"exit_code": PASS}),
    ),
    "separate": (
        ("distinct", {}, {"exit_code": PASS, "verdict": "separated"}),
        ("equal", {"vec_b": "1,2"}, {"exit_code": FINDING, "verdict": "not_separated"}),
    ),
    "recover-measure": (("single_atom", {"gauge": "exp"}, {"exit_code": PASS}),),
    "hol-iso-test": (
        ("rotation", {}, {"exit_code": PASS}),
        ("doubled", {"op": "scale", "factor": 2.0}, {"exit_code": FINDING}),
    ),
    "hol-characterize": (
        ("rotation", {}, {"exit_code": PASS}),
        (
            "doubled", {"op": "scale", "factor": 2.0},
            {"exit_code": FINDING, "failed_check": "unimodularity"},
        ),
    ),
    "three-circle": (
        ("monomial", {"monomial": 3}, {"exit_code": PASS, "rigidity_flag": True}),
        ("constant", {"monomial": 0}, {"exit_code": PASS, "rigidity_flag": True}),
    ),
    "cu-iso-test": (("identity", _IDENTITY_GRID, {"exit_code": PASS}),),
    "cu-recover": (
        ("identity", _IDENTITY_GRID, {"exit_code": PASS}),
        (
            "zigzag", {"map": "zigzag", "grid_count": 1024},
            {"exit_code": FINDING, "failed_check": "injectivity"},
        ),
    ),
    "cu-decomp-bound": (("identity", {**_IDENTITY_GRID, "probes": 3}, {"exit_code": PASS}),),
    "emit-figure": tuple((w, {"which": w}, {"exit_code": PASS}) for w in ("fig1", "fig2", "fig3")),
}
# the subcommands whose verdict reads cfg.tol; only they take --tol
_READS_TOL = ("frullani", "hol-iso-test", "cu-iso-test", "cu-recover", "cu-decomp-bound")
_DEFAULT_OVERRIDES = {
    "recover-measure": {"gauge": "rational", "alpha": 2.0},
    "cu-decomp-bound": {"map": "zigzag"},
}


def _defaults(subcommand: str) -> dict:
    values = {key: _PARAMS[key][1] for key in _HANDLERS[subcommand][1]}
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
        if name in _READS_TOL:
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
    """value as typ; a bool, another type, a non-finite float or a count or
    tolerance below its _MINIMUM is invalid."""
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, typ) or isinstance(value, bool):
        raise CliError(f"{name}: expected {typ.__name__}, got {value!r}")
    if typ is float and not np.isfinite(value):
        raise CliError(f"{name}: must be finite, got {value!r}")
    if name in _MINIMUM and value < _MINIMUM[name]:
        raise CliError(f"{name}: must be at least {_MINIMUM[name]}, got {value!r}")
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
    top = {"seed": 0, "out": None}
    if args.subcommand in _READS_TOL:
        top["tol"] = 1e-9
    for key in loaded:
        if key not in ("subcommand", "params", *top):
            raise CliError(f"{key}: not a config field of {args.subcommand}")
    if loaded.get("subcommand", args.subcommand) != args.subcommand:
        raise CliError(f"subcommand: config is for {loaded['subcommand']!r}")
    top.update({k: loaded[k] for k in top if k in loaded})
    top.update({k: getattr(args, k) for k in top if getattr(args, k) is not None})
    seed = _checked("seed", int, top["seed"])
    out = top["out"] if top["out"] is None else _checked("out", str, top["out"])
    takes = _HANDLERS[args.subcommand][1]
    given = dict(_checked("params", dict, loaded.get("params", {})))
    given.update({k: getattr(args, k) for k in takes if getattr(args, k) is not None})
    params = {}
    for key, value in given.items():
        if key not in takes:
            raise CliError(f"{key}: not a parameter of {args.subcommand}")
        params[key] = _checked(key, _PARAMS[key][0], value)
    tol = _checked("tol", float, top["tol"]) if "tol" in top else None
    return ExperimentConfig(args.subcommand, seed, tol, out, params)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 after --help
        return exc.code
    try:
        cfg = _resolve_config(args)
        run, _ = _HANDLERS[cfg.subcommand]
        defaults = _defaults(cfg.subcommand)
        if not args.selftest:
            code, record = run(cfg, {**defaults, **cfg.params})
        elif cfg.params:
            raise CliError(f"selftest: takes no parameters, got {', '.join(sorted(cfg.params))}")
        else:
            code, record = PASS, {}
            for case, params, expect in _SELFTESTS[cfg.subcommand]:
                case_code, got = run(cfg, {**defaults, **params})
                got["exit_code"] = case_code
                record.update({f"{case}.{k}": v for k, v in got.items()})
                if any(got.get(k) != v for k, v in expect.items()):
                    code = FINDING
    except (QuadratureError, ValueError) as exc:
        sys.stderr.write(f"error={exc}\n")
        return INVALID
    record["exit_code"] = code
    sys.stdout.write(_report(cfg, record))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
