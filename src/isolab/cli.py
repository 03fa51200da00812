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
Each handler imports the library module it runs on first use, so a run
loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io_formats
from .gauges import (
    QuadratureError,
    StripViolationError,
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


@contextlib.contextmanager
def _field(name: str, errors=(ValueError,)):
    """Re-raise errors as a CliError naming the field; a CliError passes
    through unchanged, so the innermost field named stands."""
    try:
        yield
    except CliError:
        raise
    except errors as exc:
        raise CliError(f"{name}: {exc}") from exc


def _parse_floats(text: str, flag: str):
    with _field(flag):
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    if not vals:
        raise CliError(f"{flag}: empty list")
    if not np.all(np.isfinite(vals)):
        raise CliError(f"{flag}: values must be finite, got {text!r}")
    return np.array(vals)


def _gauge_from(params) -> object:
    name = params["gauge"]
    if name == "clipsq":
        return clipped_square_gauge()
    return make_builtin_gauge(name, alpha=params["alpha"])


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
    if not cfg.tol > 0:
        raise CliError(f"tol: must be greater than 0 for frullani, got {cfg.tol!r}")
    # the panels outgrow their mesh bound where a small rational alpha slows
    # the kernel's decay; for the other gauges only the budget can be at fault
    with _field("alpha" if g.name == "rational" else "tol", (QuadratureError, StripViolationError)):
        value = frullani_integral(g, rho, min(cfg.tol, 1e-7))
    target = float(np.log(rho))
    err = abs(value - target)
    rec = {"gauge": g.name, "rho": rho, "value": value, "target": target, "error": err}
    return (PASS if err < max(cfg.tol, 1e-6) else FINDING), rec


_LENGTHS = "vec_a/vec_b: length must match the weight count"


def _weights_from(params, count: int):
    """The weight sequence params name; a uniform count other than count, the
    vectors' length, is refused before any weight is built."""
    from . import metric
    spec = params["weights"]
    tail = params["tail"]
    if spec.startswith("uniform:"):
        with _field("weights"):
            n = int(spec.split(":", 1)[1])
        if n > 0 and n != count:
            raise CliError(_LENGTHS)
        build, arg = metric.WeightSequence.uniform, n
    else:
        build, arg = metric.WeightSequence, _parse_floats(spec, "weights")
    with _field("weights/tail"):
        return build(arg, declared_tail=tail)


def _vector_from(params, key):
    from . import metric
    values = _parse_floats(params[key], key)
    with _field(key):
        return metric.SeminormVector(values)


def _run_separate(cfg: ExperimentConfig, params):
    from . import metric
    g = _gauge_from(params)
    a, b = (_vector_from(params, key) for key in ("vec_a", "vec_b"))
    r = _weights_from(params, len(a))
    if len(a) != len(r) or len(b) != len(r):
        raise CliError(_LENGTHS)
    with _field("vec_a/vec_b"):
        res = metric.separate(g, r, a, b)
    rec = res.as_record()
    rec["gauge"] = g.name
    return (PASS if res.verdict == "separated" else FINDING), rec


def _run_recover_measure(cfg: ExperimentConfig, params):
    from . import recovery
    g = _gauge_from(params)
    positions = _parse_floats(params["positions"], "positions")
    masses = _parse_floats(params["masses"], "masses")
    if positions.size != masses.size:
        raise CliError("masses: need one mass per position")
    order = np.argsort(positions)
    with _field("positions/masses"):
        nu = recovery.LogMeasure(positions[order], masses[order])
    budget = params["atom_budget"]
    if budget is None:
        budget = positions.size
    rep = recovery.roundtrip_check(g, nu, recovery.RecoverySpec(), budget)
    rec = rep.as_record()
    rec["gauge"] = g.name
    return (PASS if rep.passed else FINDING), rec


def _taylor_from(params, rng):
    from . import holodisc
    path = params["taylor_file"]
    if path is not None:
        with _field("taylor_file", (OSError, ValueError)):
            cols = io_formats.read_columns(path)
            if len(cols) != 2:
                raise ValueError(f"expected 2 columns (re im), got {len(cols)}")
            return holodisc.TaylorFunction(cols[0] + 1j * cols[1])
    if params["monomial"] is not None:
        return holodisc.TaylorFunction.monomial(params["monomial"])
    if params["degree"] < 1:
        raise CliError("degree: must be at least 1 for two significant coefficients")
    return holodisc.random_taylor(rng, params["degree"], min_significant=2)


def _family_from(params):
    from . import holodisc
    return holodisc.SupFamily() if params["family"] == "sup" else holodisc.HpFamily(params["p"])


def _disc_operator_from(params, degree):
    """The operator named by params; a matrix must act on probes of the degree."""
    from . import holodisc
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
    else:
        path = params["op_file"]
        if path is None:
            raise CliError("op_file: required for op=matrix")
        with _field("op_file", (OSError, ValueError)):
            cols = io_formats.read_columns(path)
        arr = np.column_stack(cols)
        if arr.shape[1] % 2 != 0 or arr.shape[0] * 2 != arr.shape[1]:
            raise CliError("op_file: expected n rows of 2n floats (re/im pairs)")
        m, short = arr[:, 0::2] + 1j * arr[:, 1::2], "op_file"
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
    from . import holodisc
    rng = np.random.default_rng(cfg.seed)
    op = _disc_operator_from(params, params["degree"])
    family = _family_from(params)
    exh = holodisc.DiscExhaustion.default(params["levels"])
    probes = holodisc.standard_probes(rng, degree=params["degree"])
    with _field("p"), _field(_matrix_field(params), (OverflowError,)):
        rep = holodisc.isometry_test(op, family, exh, probes, tol=max(cfg.tol, 1e-11))
    return (PASS if rep.passed else FINDING), rep.as_record()


def _run_hol_characterize(cfg: ExperimentConfig, params):
    from . import holodisc
    rng = np.random.default_rng(cfg.seed)
    op = _disc_operator_from(params, holodisc.CHARACTERIZE_DEGREE)
    family = _family_from(params)
    exh = holodisc.DiscExhaustion.default(params["levels"])
    try:
        with _field("p"), _field(_matrix_field(params), (OverflowError,)):
            ch = holodisc.characterize_isometry(op, exh, family, rng=rng)
    except holodisc.NotCharacterizable as exc:
        rec = {"characterizable": False, "circle_samples": exc.circle_samples}
        return FINDING, {**rec, **exc.as_record()}
    return PASS, {"characterizable": True, **ch.as_record()}


def _run_three_circle(cfg: ExperimentConfig, params):
    from . import holodisc
    rng = np.random.default_rng(cfg.seed)
    f = _taylor_from(params, rng)
    radii = _parse_floats(params["radii"], "radii")
    if radii.size != 3 or not 0 < radii[0] < radii[1] < radii[2] < 1:
        raise CliError("radii: need three radii with 0 < r1 < r2 < r3 < 1")
    # the radii are valid, so a refusal is the function's
    source = next((k for k in ("taylor_file", "monomial") if params[k] is not None), "degree")
    with _field(source):
        rep = holodisc.three_circle_check(f, *radii)
    rec = rep.as_record()
    rec["degree"] = f.degree
    return (PASS if rep.slack >= -1e-12 else FINDING), rec


def _grid_setup(params):
    """Exhaustion and grid; a grid too coarse to certify is invalid input."""
    from . import contspace
    domain = params["domain"]
    if domain == "interval":
        exh = contspace.Exhaustion1D.default(params["levels"])
        grid = contspace.IntervalGrid.build(exh, params["grid_count"])
        coarse = "grid_count"
    else:
        exh = contspace.ExhaustionDisc.default()
        grid = contspace.DiscGrid.build(exh, params["radial_count"], params["angle_count"])
        radial_step = float(np.max(np.diff(grid.radii)))
        coarse = "radial_count" if radial_step >= grid.cell else "angle_count"
    with _field(coarse):
        contspace.check_resolution(grid, exh)
    return domain, exh, grid


def _grid_operator(params, domain, exh, grid, rng):
    from . import contspace
    kind = params["map"]
    weight = params["weight"]
    if weight == "random":
        h = contspace.unimodular_field(grid, rng)
    else:
        h = contspace.GridFunction.constant(grid, 1.0)
    if kind == "identity":
        phi = (lambda x: x)
    elif kind == "random":
        if domain == "interval":
            phi = contspace.random_interval_homeo(exh, rng, params["orientation"])
        else:
            phi = contspace.random_annulus_homeo(exh, rng)
    elif kind == "zigzag":
        if domain != "interval":
            raise CliError("map: zigzag is interval-only")
        with _field("levels"):
            phi = contspace.build_zigzag_fold(exh, grid)
    else:
        if domain != "disc":
            raise CliError("map: twist is disc-only")
        phi = contspace.AnnulusHomeo((0.0, *exh.radii), (0.0, 0.0, np.pi))
    return contspace.make_composition_operator(h, phi), h


def _grid_probes(grid, rng):
    """The constant 1, the coordinate and four random probes."""
    from . import contspace
    probes = [
        contspace.GridFunction.constant(grid, 1.0),
        contspace.GridFunction.coordinate(grid),
    ]
    probes += [contspace.random_probe(grid, rng) for _ in range(4)]
    return probes


def _grid_handler(check):
    """A cu-* handler: build the grid and the operator, run check, and stamp
    every record it returns, a refusal too, with the domain, the exhaustion
    levels and the resolution the report is relative to."""

    def run(cfg: ExperimentConfig, params):
        rng = np.random.default_rng(cfg.seed)
        domain, exh, grid = _grid_setup(params)
        T, h = _grid_operator(params, domain, exh, grid, rng)
        code, rec = check(cfg, params, exh, grid, T, h, rng)
        stamp = {"domain": domain, "levels": exh.levels, "cell": grid.cell}
        return code, {**rec, **stamp, "nodes": int(grid.nodes.size)}

    return run


@_grid_handler
def _run_cu_iso_test(cfg, params, exh, grid, T, h, rng):
    from . import contspace
    rep = contspace.isometry_test_grid(T, exh, _grid_probes(grid, rng), tol=cfg.tol)
    return (PASS if rep.passed else FINDING), rep.as_record()


@_grid_handler
def _run_cu_recover(cfg, params, exh, grid, T, h, rng):
    from . import contspace
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
    from . import contspace
    probes = [contspace.random_probe(grid, rng) for _ in range(params["probes"])]
    rep = contspace.decomposition_bound_check(T, exh, probes, tol=cfg.tol)
    return (PASS if rep.passed else FINDING), rep.as_record()


def _write_grid_function(path: Path, gf):
    """One row per distinct node: its position (x, or x and y on the disc), then Re and Im."""
    nodes, v = gf.grid.nodes, gf.values
    position = (nodes,) if gf.domain == "interval" else (nodes.real, nodes.imag)
    io_formats.write_columns(path, *position, v.real, v.imag)


def _run_emit_figure(cfg: ExperimentConfig, params):
    from . import contspace
    which = params["which"]
    out = _out_dir(cfg)
    if out is None:
        raise CliError("out: emit-figure requires an output directory")
    if which == "fig1":
        t = np.arange(501) / 100.0
        cols = [t, *(make_builtin_gauge(name)(t) for name in ("clip", "exp", "rational"))]
        header = ["t", "theta_clip", "theta_exp", "theta_rational1"]
        io_formats.write_csv(out / "fig1-gauges.csv", header, cols)
        rec = {"which": which, "rows": int(t.size), "clip_at_one": float(cols[1][100])}
        return (PASS if rec["clip_at_one"] == 1.0 else FINDING), rec
    if which == "fig2":
        exh = contspace.Exhaustion1D(((0.5, 0.5), (0.2, 0.8)))
        inc = contspace.build_interval_homeo(exh, "increasing", [(0.35, 0.28), (0.65, 0.72)])
        dec = contspace.build_interval_homeo(exh, "decreasing")
        for name, homeo in (("increasing", inc), ("decreasing", dec)):
            io_formats.write_csv(out / f"fig2-{name}.csv", ["x", "y"], [homeo.xs, homeo.ys])
        fixed = [0.2, 0.5, 0.8]
        gaps = [abs(float(inc(x)) - x) for x in fixed]
        gaps.append(abs(float(dec(0.5)) - 0.5))
        rec = {"which": which, "fixed_points_gap": max(gaps)}
        return (PASS if rec["fixed_points_gap"] < 1e-12 else FINDING), rec
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
    header = ["circle_r", "theta", "x_before", "y_before", "x_after", "y_after"]
    io_formats.write_csv(out / "fig3-field.csv", header, cols)
    profile = [tw.twist_breaks, tw.twist_values]
    io_formats.write_csv(out / "fig3-profile.csv", ["r", "twist"], profile)
    gap = 0.0
    for r in exh.radii:
        z = r * np.exp(1j * theta)
        gap = max(gap, float(np.max(np.abs(np.abs(tw(z)) - r))))
    rec = {"which": which, "circle_gap": gap}
    return (PASS if gap < 1e-12 else FINDING), rec


# key -> (type, default, help); flags and config files pass the same check
_PARAMS = {
    "gauge": (str, "clip", "builtin gauge"),
    "alpha": (float, 1.0, "exponent for the rational gauge"),
    "rho": (float, 2.0, "Frullani ratio (must exceed 1)"),
    "weights": (str, "uniform:2", "comma-separated weights or uniform:N"),
    "tail": (float, 0.0, "declared tail mass of the weight sequence"),
    "vec_a": (str, "1,2", "first seminorm vector, comma-separated"),
    "vec_b": (str, "1,3", "second seminorm vector, comma-separated"),
    "positions": (str, "0.0", "true atom positions (log scale)"),
    "masses": (str, "0.5", "true atom masses"),
    "atom_budget": (int, None, "maximum atoms for recovery (default: one per position)"),
    "op": (str, "rotation", "operator kind"),
    "op_file": (str, None, "columnar matrix file for op=matrix"),
    "alpha_angle": (float, np.pi / 3, "rotation alpha = exp(i angle)"),
    "beta_angle": (float, float(np.sqrt(2.0)), "rotation beta = exp(i angle)"),
    "factor": (float, 2.0, "scaling factor for op=scale"),
    "family": (str, "sup", "seminorm family"),
    "p": (float, 1.0, "exponent for the hp family"),
    "levels": (int, 3, "number of exhaustion levels"),
    "degree": (int, 8, "degree of random polynomials"),
    "taylor_file": (str, None, "coefficient file (re im per line)"),
    "monomial": (int, None, "use the monomial z^k as the input"),
    "radii": (str, "0.25,0.5,0.75", "three circle radii, comma-separated"),
    "domain": (str, "interval", "grid domain"),
    "orientation": (str, "increasing", "interval homeomorphism orientation"),
    "map": (str, "random", "point map"),
    "weight": (str, "random", "weight field"),
    "grid_count": (int, 4096, "interval grid node count"),
    "radial_count": (int, 256, "disc grid radius count"),
    "angle_count": (int, 512, "angles on the outer disc-grid ring"),
    "probes": (int, 20, "number of random probes"),
    "which": (str, "fig1", "figure to emit"),
}
# key -> the words it allows, checked with the type and listed by --help
_CHOICES = {
    "gauge": ("clip", "rational", "exp", "clipsq"),
    "op": ("rotation", "scale", "squarewarp", "matrix"),
    "family": ("sup", "hp"),
    "domain": ("interval", "disc"),
    "orientation": ("increasing", "decreasing"),
    "map": ("identity", "random", "zigzag", "twist"),
    "weight": ("random", "constant"),
    "which": ("fig1", "fig2", "fig3"),
}
# number -> smallest valid value, checked with the type
_MINIMUM = {
    "seed": 0, "tol": 0, "atom_budget": 1, "levels": 1, "degree": 0, "monomial": 0,
    "grid_count": 2, "radial_count": 2, "angle_count": 8, "probes": 1, "p": 1,
}
# number -> the value it must exceed, checked with the type
_ABOVE = {"alpha": 0, "rho": 1}
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


class _Parser(argparse.ArgumentParser):
    """argparse whose refusals are CliErrors naming the field at fault."""

    def error(self, message):
        kind, _, detail = message.partition(": ")
        if kind.startswith("argument "):  # argument --levels: invalid int value: 'nan'
            flag, message = kind.removeprefix("argument "), detail
        elif kind == "ambiguous option":  # ambiguous option: --s could match --seed, --selftest
            flag = detail.split()[0].partition("=")[0]
        else:  # the following arguments are required: subcommand
            flag, message = detail, "required"
        raise CliError(f"{flag.lstrip('-').replace('-', '_')}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            if key in _CHOICES:
                helptext = f"{helptext}: {', '.join(_CHOICES[key])}"
            if default is not None:
                helptext = f"{helptext} (default: {default})"
            p.add_argument("--" + key.replace("_", "-"), type=typ, default=None, help=helptext)
    return parser


def _checked(name: str, typ, value):
    """value as typ; a bool, another type, a non-finite float, a number below
    its _MINIMUM or not above its _ABOVE, or a word outside its _CHOICES is
    invalid."""
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, typ) or isinstance(value, bool):
        raise CliError(f"{name}: expected {typ.__name__}, got {value!r}")
    if typ is float and not np.isfinite(value):
        raise CliError(f"{name}: must be finite, got {value!r}")
    if name in _MINIMUM and value < _MINIMUM[name]:
        raise CliError(f"{name}: must be at least {_MINIMUM[name]}, got {value!r}")
    if name in _ABOVE and not value > _ABOVE[name]:
        raise CliError(f"{name}: must be greater than {_ABOVE[name]}, got {value!r}")
    if name in _CHOICES and value not in _CHOICES[name]:
        raise CliError(f"{name}: must be one of {', '.join(_CHOICES[name])}, got {value!r}")
    return value


def _resolve_config(args, extra) -> ExperimentConfig:
    if extra:  # what argparse left over starts with a flag the subcommand does not take
        key = extra[0].lstrip("-").partition("=")[0].replace("-", "_")
        raise CliError(f"{key}: not a parameter of {args.subcommand}")
    loaded = {}
    if args.config is not None:
        with _field("config", (OSError, ValueError)):
            loaded = json.loads(Path(args.config).read_text())
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
    try:
        args, extra = build_parser().parse_known_args(argv)
        cfg = _resolve_config(args, extra)
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
    except SystemExit as exc:  # --help has printed its text
        return exc.code
    except (QuadratureError, ValueError) as exc:
        sys.stderr.write(f"error={exc}\n")
        return INVALID
    record["exit_code"] = code
    sys.stdout.write(_report(cfg, record))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
