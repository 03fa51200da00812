import ast
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isolab.cli import (
    _CHOICES, _HANDLERS, _PARAMS, _READS_TOL, _SELFTESTS, PASS, FINDING, INVALID,
    _checked, build_parser, main,
)
from isolab import cli, metric
from isolab.io_formats import read_columns, write_columns


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_knows_every_subcommand():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "theta-check", "frullani", "separate", "recover-measure",
        "hol-iso-test", "hol-characterize", "three-circle",
        "cu-iso-test", "cu-recover", "cu-decomp-bound", "emit-figure",
    ):
        assert name in text


def test_theta_check_pass_and_finding(capsys):
    code, out, _ = run_cli(capsys, "theta-check", "--gauge", "clip")
    assert code == PASS
    assert "all_pass=true" in out
    code, out, _ = run_cli(capsys, "theta-check", "--gauge", "clipsq")
    assert code == FINDING
    assert "subadditive.passed=false" in out


def test_invalid_gauge_names_field(capsys):
    code, _, err = run_cli(capsys, "theta-check", "--gauge", "cubic")
    assert code == INVALID
    assert "gauge" in err


def test_frullani_matches_log(capsys):
    code, out, _ = run_cli(capsys, "frullani", "--gauge", "exp", "--rho", "2.0")
    assert code == PASS
    rec = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert abs(float(rec["value"]) - np.log(2.0)) < 1e-6


def test_frullani_invalid_rho(capsys):
    code, _, err = run_cli(capsys, "frullani", "--rho", "0.5")
    assert code == INVALID
    assert "rho" in err


def test_separate_finding_on_equal_vectors(capsys):
    code, out, _ = run_cli(
        capsys, "separate", "--vec-a", "1,2", "--vec-b", "1,2", "--weights", "uniform:2"
    )
    assert code == FINDING
    assert "verdict=not_separated" in out


def test_separate_length_mismatch_invalid(capsys):
    code, _, err = run_cli(capsys, "separate", "--vec-a", "1,2,3")
    assert code == INVALID
    assert "vec_a" in err


def test_recover_measure_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "recover-measure", "--positions", "0.0,1.2", "--masses", "0.3,0.4"
    )
    assert code == PASS
    assert "passed=true" in out


@pytest.mark.parametrize("argv", [
    ["--gauge", "clip"],
    # the atom budget exceeds the count: the pencil keeps a noise node, which the fit drops
    ["--gauge", "clip", "--positions=-0.6,1.9", "--masses", "0.2,0.25", "--atom-budget", "3"],
    ["--masses", "1e-10"],
    ["--masses", "1e-14"],
    ["--positions", "0,1.5", "--masses", "1e-10,1e-10"],
], ids=["clip", "clip_split_atom", "mass_1e-10", "mass_1e-14", "two_masses_1e-10"])
def test_recover_measure_passes_within_the_residual_tolerance(capsys, argv):
    # the fit and the verdict read the samples through the model that made them,
    # so a kinked kernel and a tiny measure both meet the 1e-5 residual
    code, out, _ = run_cli(capsys, "recover-measure", *argv)
    rec = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert code == PASS
    assert rec["passed"] == "true" and "failed_check" not in rec
    assert float(rec["residual"]) <= 1e-5
    assert int(rec["fit_nfev"]) <= 10


def test_recover_measure_names_the_atom_count_mismatch(capsys):
    code, out, _ = run_cli(
        capsys, "recover-measure", "--gauge", "exp", "--positions", "0,2e-4", "--masses", "0.3,0.4"
    )
    assert code == FINDING
    assert "failed_check=atom-count\n" in out and "max_position_error=inf\n" in out
    assert "certificate." not in out


def test_recover_measure_reports_what_it_used(capsys):
    code, out, _ = run_cli(
        capsys, "recover-measure", "--positions", "0.0,1.2", "--masses", "0.3,0.4"
    )
    assert code == PASS
    assert "pencil_rank=2\n" in out
    assert "frequencies_used=257\n" in out
    assert "fit_nfev=" in out and "fit_nfev=0\n" not in out
    assert "kernel_transform=closed_form\n" in out
    assert "failed_check" not in out and "certificate." not in out
    # refused at the pencil: the frequencies were counted, the pencil and the fit never
    # ran; the refusal names its check and certificate, and the kernel transform is named
    code, out, _ = run_cli(
        capsys, "recover-measure", "--positions", "0.0", "--masses", "0.3", "--atom-budget", "200"
    )
    assert code == FINDING
    for key, value in (("pencil_rank", 0), ("fit_nfev", 0), ("frequencies_used", 257)):
        assert f"{key}={value}\n" in out
    assert "failed_check=pencil\n" in out
    assert "certificate.atom_budget=200\n" in out and "certificate.frequencies_used=257\n" in out
    assert "kernel_transform=closed_form\n" in out


@pytest.mark.parametrize("argv, key, value", [
    (["hol-iso-test"], "circle_samples", "512"),
    (["hol-iso-test", "--degree", "200"], "circle_samples", "1024"),
    (["hol-characterize"], "circle_samples", "512"),
    (["three-circle"], "circle_samples", "64"),
    (["three-circle", "--monomial", "40"], "circle_samples", "256"),
    (["separate"], "t_grid_size", "200"),
    (["theta-check"], "value_samples", "1202"),  # 0 and 1201 log-spaced points
    (["theta-check"], "subadditive_pairs", "25281"),  # 159 base points, squared
])
def test_reports_say_what_they_sampled(argv, key, value, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == PASS
    assert f"\n{key}={value}\n" in "\n" + out


def test_hol_characterize_scale_finding(capsys):
    code, out, _ = run_cli(capsys, "hol-characterize", "--op", "scale")
    assert code == FINDING
    rec = dict(line.split("=", 1) for line in out.strip().splitlines())
    # the refusal carries what was measured up to the failing check, and against what
    assert rec["failed_check"] == "unimodularity" and rec["characterizable"] == "false"
    assert rec["circle_samples"] == "512"
    measured = sorted(k for k in rec if k.startswith("certificate."))
    assert measured == [
        "certificate.alpha_modulus_gap", "certificate.constancy_tail",
        "certificate.mean_flatness_gap",
    ]
    assert float(rec["certificate.alpha_modulus_gap"]) > 1e-10


def test_three_circle_monomial(capsys):
    code, out, _ = run_cli(capsys, "three-circle", "--monomial", "3")
    assert code == PASS
    assert "rigidity_flag=true" in out


def test_three_circle_taylor_file(tmp_path, capsys):
    good = tmp_path / "coeffs.txt"
    write_columns(good, [1.0, -0.5, 0.0, 0.25], [0.0, 0.25, 2.0, -1.0])
    good.write_text("# re im\n\n" + good.read_text())
    code, out, _ = run_cli(capsys, "three-circle", "--taylor-file", str(good))
    assert code == PASS
    assert "degree=3" in out
    three = tmp_path / "three.txt"
    write_columns(three, [1.0, 2.0], [0.0, 0.0], [0.0, 0.0])
    empty = tmp_path / "empty.txt"
    empty.write_text("# no rows\n\n")
    for path in (three, empty):
        code, out, err = run_cli(capsys, "three-circle", "--taylor-file", str(path))
        assert (code, out) == (INVALID, "")
        assert "taylor_file" in err


def test_three_circle_taylor_file_at_the_float_range_edges(tmp_path, capsys):
    # |f|^2 of 1e308 (1 + z) overflows unscaled; the maxima of 1e-320 (1 + z)
    # are subnormal and the zero function has none, so those two are invalid
    # input naming the file, never a finding
    slack = {}
    for name, c in (("unit", 1.0), ("big", 1e308), ("tiny", 1e-320), ("zero", 0.0)):
        path = tmp_path / f"{name}.txt"
        write_columns(path, [c, c], [0.0, 0.0])
        code, out, err = run_cli(capsys, "three-circle", "--taylor-file", str(path))
        if name in ("unit", "big"):
            assert code == PASS
            slack[name] = float(dict(line.split("=", 1) for line in out.splitlines())["slack"])
        else:
            assert (code, out) == (INVALID, "")
            assert err.startswith("error=taylor_file: ")
    assert abs(slack["big"] - slack["unit"]) < 1.5e-13


@pytest.mark.parametrize("p", ["1000", "1e4", "1e308"])
@pytest.mark.parametrize("op", ["rotation", "squarewarp"])
def test_hol_iso_test_refuses_an_hp_exponent_out_of_float_range(op, p, capsys):
    # |f|^p over- or underflows on some probe circle (at p = 1000 already
    # |z^2|^p at r = 1/2), so the means cannot be compared
    code, out, err = run_cli(capsys, "hol-iso-test", "--op", op, "--family", "hp", "--p", p)
    assert (code, out) == (INVALID, "")
    assert err.startswith(f"error=p: p = {float(p):g} ")


def test_hol_iso_test_hp_verdicts_at_a_representable_exponent(capsys):
    base = ("hol-iso-test", "--family", "hp", "--p", "100")
    assert run_cli(capsys, *base)[0] == PASS
    assert run_cli(capsys, *base, "--op", "squarewarp")[0] == FINDING


def test_cu_subcommands_interval(capsys):
    code, out, _ = run_cli(
        capsys, "cu-iso-test", "--domain", "interval", "--grid-count", "1024"
    )
    assert code == PASS
    code, out, _ = run_cli(
        capsys, "cu-recover", "--map", "zigzag", "--grid-count", "1024"
    )
    assert code == FINDING
    assert "failed_check=injectivity" in out
    code, out, _ = run_cli(capsys, "cu-decomp-bound", "--grid-count", "1024")
    assert code == PASS


def test_cu_reports_carry_cell_and_nodes(capsys):
    for argv in (
        ["cu-iso-test", "--grid-count", "1024"],
        ["cu-recover", "--grid-count", "1024"],
        ["cu-recover", "--map", "zigzag", "--grid-count", "1024"],
        ["cu-decomp-bound", "--grid-count", "1024"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code in (PASS, FINDING)
        rec = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert rec["domain"] == "interval", argv
        assert float(rec["cell"]) > 0, argv
        assert int(rec["nodes"]) == 1028, argv  # 1024 plus the inner endpoints


def test_cu_recover_refusal_names_its_domain(capsys):
    code, out, _ = run_cli(capsys, "cu-recover", "--selftest")
    assert code == PASS
    assert "zigzag.failed_check=injectivity" in out.splitlines()
    assert "zigzag.domain=interval" in out.splitlines()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--grid-count", "2", "--levels", "2"], "grid_count"),
        (["--domain", "disc", "--radial-count", "2"], "radial_count"),
        (["--domain", "disc", "--angle-count", "16"], "angle_count"),
    ],
)
def test_cu_recover_refuses_vacuous_grid(capsys, argv, field):
    code, out, err = run_cli(capsys, "cu-recover", *argv)
    assert code == INVALID
    assert out == ""
    assert err.startswith(f"error={field}: ")


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 3, "params": {"gauge": "clip", "rho": 4.0}}))
    code, out, _ = run_cli(capsys, "frullani", "--config", str(cfg))
    assert code == PASS
    assert "rho=4.0" in out
    # explicit flag beats the file
    code, out, _ = run_cli(capsys, "frullani", "--config", str(cfg), "--rho", "2.0")
    assert "rho=2.0" in out


def test_config_echo_reruns_byte_identical(tmp_path, capsys):
    argv = ["separate", "--gauge", "exp", "--vec-a", "1,2.5", "--tail", "0.25",
            "--weights", "uniform:2", "--seed", "4"]
    code, out, _ = run_cli(capsys, *argv)
    echo = dict(line.split("=", 1) for line in out.splitlines())["config"]
    cfg = tmp_path / "echo.json"
    cfg.write_text(echo)
    rerun_code, rerun_out, _ = run_cli(capsys, "separate", "--config", str(cfg))
    assert (rerun_code, rerun_out) == (code, out)


def _echo(out) -> dict:
    return json.loads(dict(line.split("=", 1) for line in out.splitlines())["config"])


_NO_TOL = (
    "theta-check", "separate", "recover-measure", "hol-characterize", "three-circle", "emit-figure"
)


def test_tol_echoed_and_rerun_where_a_verdict_reads_it(tmp_path, capsys):
    assert sorted(_READS_TOL) == sorted(set(_HANDLERS) - set(_NO_TOL))
    code, out, _ = run_cli(capsys, "frullani", "--tol", "1e-8")
    assert _echo(out)["tol"] == 1e-8
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(_echo(out)))
    assert run_cli(capsys, "frullani", "--config", str(cfg)) == (code, out, "")


@pytest.mark.parametrize("name", _READS_TOL)
def test_negative_tol_is_invalid(name, tmp_path, capsys):
    want = (INVALID, "", "error=tol: must be at least 0, got -1.0\n")
    assert run_cli(capsys, name, "--tol", "-1") == want
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": -1}))
    assert run_cli(capsys, name, "--config", str(cfg)) == want


def test_zero_tol_is_invalid_for_frullani(tmp_path, capsys):
    # the quadrature budget must be positive; the other tol readers accept 0
    want = (INVALID, "", "error=tol: must be greater than 0 for frullani, got 0.0\n")
    assert run_cli(capsys, "frullani", "--tol", "0") == want
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 0}))
    assert run_cli(capsys, "frullani", "--config", str(cfg)) == want
    assert run_cli(capsys, "cu-iso-test", "--tol", "0")[0] == PASS


@pytest.mark.parametrize("count", ["0", "-1"])
def test_uniform_weights_need_a_positive_count(count, capsys):
    want = (INVALID, "", "error=weights/tail: weights must be a nonempty 1-D sequence\n")
    assert run_cli(capsys, "separate", "--weights", f"uniform:{count}") == want


def test_uniform_weights_past_the_vectors_length_are_refused_unbuilt(monkeypatch, capsys):
    build = metric.WeightSequence.uniform

    def bounded(n, declared_tail=0.0):
        assert n <= 2, f"{n} weights built for vectors of length 2"
        return build(n, declared_tail)

    monkeypatch.setattr(metric.WeightSequence, "uniform", bounded)
    want = (INVALID, "", "error=vec_a/vec_b: length must match the weight count\n")
    for count in ("3", "99999999999"):
        assert run_cli(capsys, "separate", "--weights", f"uniform:{count}") == want
    assert run_cli(capsys, "separate", "--weights", "uniform:2")[0] == PASS


@pytest.mark.parametrize("name", _NO_TOL)
def test_tol_refused_where_no_verdict_reads_it(name, tmp_path, capsys):
    out_dir = ["--out", str(tmp_path)] if name == "emit-figure" else []
    code, out, err = run_cli(capsys, name, "--tol", "0.5", *out_dir)
    assert (code, out, err) == (INVALID, "", f"error=tol: not a parameter of {name}\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 0.5}))
    code, out, err = run_cli(capsys, name, "--config", str(cfg), *out_dir)
    assert (code, out) == (INVALID, "")
    assert err.startswith("error=tol: ")
    code, out, _ = run_cli(capsys, name, "--selftest", *out_dir)
    assert code == PASS
    assert "tol" not in _echo(out)


@pytest.mark.parametrize(
    "argv, config, field",
    [
        (["theta-check", "--positions", "1,2"], None, "positions"),
        (["frullani"], {"params": {"rhoo": 3.0}}, "rhoo"),
        (["frullani"], {"params": {"rho": "3"}}, "rho"),
        (["frullani"], {"params": {"rho": True}}, "rho"),
        (["separate", "--tail", "nan"], None, "tail"),
        (["theta-check", "--selftest", "--gauge", "exp"], None, "selftest"),
        (["recover-measure", "--masses", "nan", "--positions", "0"], None, "masses"),
        (["recover-measure", "--positions", "inf"], None, "positions"),
        (["theta-check", "--gauge", "rational", "--alpha", "inf"], None, "alpha"),
        (["frullani"], {"seeed": 1}, "seeed"),
        (["frullani"], {"seed": "x"}, "seed"),
        (["frullani"], {"tol": "x"}, "tol"),
        (["frullani"], {"subcommand": "separate"}, "subcommand"),
        (["cu-iso-test", "--grid-count", "-1"], None, "grid_count"),
        (["cu-iso-test", "--levels", "0"], None, "levels"),
        (["cu-recover", "--domain", "disc", "--angle-count", "4"], None, "angle_count"),
        (["cu-recover", "--domain", "disc", "--radial-count", "-1"], None, "radial_count"),
        (["cu-decomp-bound", "--probes", "0"], None, "probes"),
        (["cu-decomp-bound", "--levels", "1"], None, "levels"),
        (["hol-iso-test", "--levels", "0"], None, "levels"),
        (["hol-iso-test", "--degree", "-1"], None, "degree"),
        (["three-circle", "--degree", "0"], None, "degree"),
        (["three-circle", "--monomial", "-1"], None, "monomial"),
        (["separate", "--vec-a", "2,1"], None, "vec_a"),
        (["separate", "--vec-a", "0,1"], None, "vec_a"),
        (["separate", "--tail", "-1"], None, "tail"),
        (["separate", "--weights", "0.5,0.6"], None, "weights"),
        (["frullani", "--seed", "-1"], None, "seed"),
        (["hol-iso-test", "--op", "scale", "--degree", "20"], None, "degree"),
        (["hol-iso-test", "--op", "matrix", "--op-file", "IDENT4"], None, "op_file"),
        (["hol-characterize", "--op", "matrix", "--op-file", "IDENT4"], None, "op_file"),
    ],
)
def test_parameter_table_contract(argv, config, field, tmp_path, capsys):
    # IDENT4 stands for a 4x4 identity, smaller than the degree-8 probes need
    ident = tmp_path / "ident4.txt"
    np.savetxt(ident, np.kron(np.eye(4), [1.0, 0.0]))
    argv = [str(ident) if a == "IDENT4" else a for a in argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == INVALID
    assert out == ""
    assert field in err


def test_matrix_op_file(tmp_path, capsys):
    ident = tmp_path / "ident.txt"
    np.savetxt(ident, np.kron(np.eye(9), [1.0, 0.0]), header="9x9 identity, re im pairs")
    empty = tmp_path / "empty.txt"
    empty.write_text("# no rows\n\n")
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 0 0 0\n0 0 1\n")
    code, out, _ = run_cli(capsys, "hol-iso-test", "--op", "matrix", "--op-file", str(ident))
    assert code == PASS
    assert "passed=true" in out
    for path in (empty, ragged):
        code, out, err = run_cli(capsys, "hol-iso-test", "--op", "matrix", "--op-file", str(path))
        assert (code, out) == (INVALID, "")
        assert "op_file" in err


def test_main_returns_argparse_exit_codes(capsys):
    # no SystemExit handling here: main must return the code, not raise it
    for argv, err in [
        (["theta-check", "--positions", "1"], "positions: not a parameter of theta-check"),
        (["hol-iso-test", "--levels", "nan"], "levels: invalid int value: 'nan'"),
        (["theta-check", "--seed"], "seed: expected one argument"),
        (["theta-check", "--s", "1"], "s: ambiguous option: --s could match --seed, --selftest"),
        ([], "subcommand: required"),
    ]:
        assert run_cli(capsys, *argv) == (INVALID, "", f"error={err}\n")
    assert main(["frullani", "--help"]) == PASS
    assert "--rho" in capsys.readouterr().out


_COUNTS = ("grid_count", "radial_count", "angle_count")
_LIST = ["", "nan", "0", "-1", "0.5,0.25", "0.25,0.5,0.75", "0,inf", "-inf,1", "1,2"]
_POOLS = {
    int: ["-1", "0", "1", "2", "3", "nan", ""],
    float: ["nan", "inf", "-inf", "0", "-1", "1", "2.5"],
    "gauge": ["clip", "rational", "exp", "clipsq", "nan"],
    "op": ["rotation", "scale", "squarewarp", "matrix"],
    "family": ["sup", "hp", ""],
    "domain": ["interval", "disc"],
    "orientation": ["increasing", "decreasing", "sideways"],
    "map": ["identity", "random", "zigzag", "twist"],
    "weight": ["random", "constant"],
    "which": ["fig1", "fig2", "fig3", "fig4"],
    "op_file": ["missing.txt"],
    "taylor_file": ["missing.txt"],
    "weights": ["", "uniform:2", "uniform:0", "0.5,0.5", "0.5,nan", "uniform:nan"],
    **dict.fromkeys(("vec_a", "vec_b", "positions", "masses", "radii"), _LIST),
    **dict.fromkeys(_COUNTS, ["-1", "0", "1", "2", "16", "256"]),
}


def _nonfinite(value):
    tokens = value.replace(":", ",").split(",")
    return any(t in ("nan", "inf", "-inf") for t in tokens)


@st.composite
def _argvs(draw):
    name = draw(st.sampled_from(sorted(_HANDLERS)))
    takes = _HANDLERS[name][1]
    keys = draw(st.lists(st.sampled_from(takes), unique=True, max_size=4))
    # keep disc grids small even when the counts are not drawn
    keys += [k for k in takes if k in _COUNTS and k not in keys]
    pairs = [(k, draw(st.sampled_from(_POOLS.get(k) or _POOLS[_PARAMS[k][0]]))) for k in keys]
    return name, pairs


# the fields outside the parameter table that a refusal may name
_TOP_FIELDS = ("config", "params", "seed", "tol", "out", "selftest", "subcommand")


def _contract_run(argv):
    """(exit code, stdout, stderr) of main(argv), checked against the exit-2
    contract: nothing on stdout, and one stderr line naming a field the
    subcommand takes (or a /-joined pair of them) or a top-level field."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (PASS, FINDING, INVALID), argv
    if code != INVALID:
        return code, out, err
    assert out == "", argv
    takes = _HANDLERS[argv[0]][1]
    assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    field = re.match(r"error=([a-z_/]+): ", err)
    assert field is not None, (argv, err)
    keys = field.group(1).split("/")
    assert field.group(1) in _TOP_FIELDS or (len(keys) <= 2 and set(keys) <= set(takes)), err
    return code, out, err


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_exit_code_contract_fuzz(tmp_path_factory, case):
    name, pairs = case
    argv = [name, "--seed", "3"]
    if name == "emit-figure":
        argv += ["--out", str(tmp_path_factory.mktemp("fig"))]
    for key, value in pairs:
        argv += ["--" + key.replace("_", "-"), value]
    code, _, _ = _contract_run(argv)
    if any(_nonfinite(v) for _, v in pairs):
        assert code == INVALID, argv


@pytest.mark.parametrize(
    "argv, field",
    [
        (["theta-check", "--gauge", "rational", "--alpha", "0"], "alpha"),
        (["recover-measure", "--gauge", "rational", "--alpha", "0"], "alpha"),
        (["cu-iso-test", "--map", "identity", "--orientation", "bogus"], "orientation"),
        (["cu-recover", "--domain", "disc", "--orientation", "bogus"], "orientation"),
        (["hol-characterize", "--family", "hp", "--p", "0.5"], "p"),
        (["hol-iso-test", "--family", "sup", "--p", "0.5"], "p"),
        (["hol-iso-test", "--family", "hp", "--p", "1e4"], "p"),
        (["hol-characterize", "--op", "scale", "--family", "hp", "--p", "1e4"], "p"),
        (["frullani", "--gauge", "rational", "--alpha", "0.01"], "alpha"),
        (["frullani", "--gauge", "rational", "--alpha", "1e-300"], "alpha"),
        (["frullani", "--gauge", "clip", "--tol", "1e-300"], "tol"),
        (["frullani", "--rho", "1"], "rho"),
        (["hol-iso-test", "--levels", "nan"], "levels"),
    ],
)
def test_a_refusal_names_the_field_at_fault(argv, field):
    code, _, err = _contract_run(argv)
    assert code == INVALID and err.startswith(f"error={field}: "), err


def _words_taken():
    return [(name, key) for name, (_, takes) in _HANDLERS.items() for key in takes
            if key in _CHOICES]


@pytest.mark.parametrize("name, key", _words_taken())
def test_a_word_outside_the_table_is_refused_from_flag_and_config(name, key, tmp_path):
    want = f"error={key}: must be one of {', '.join(_CHOICES[key])}, got 'bogus'\n"
    assert _contract_run([name, "--" + key.replace("_", "-"), "bogus"]) == (INVALID, "", want)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {key: "bogus"}}))
    assert _contract_run([name, "--config", str(cfg)]) == (INVALID, "", want)


def test_help_lists_the_allowed_words_from_the_table(capsys):
    for name, key in _words_taken():
        assert main([name, "--help"]) == PASS
        text = " ".join(capsys.readouterr().out.split())
        assert ", ".join(_CHOICES[key]) in text, (name, key)


def _field_breaches(source: str) -> list:
    """Lines where an except handler raises CliError itself, outside the
    _field helper that names the field of every library error."""
    tree = ast.parse(source)
    helper = {
        id(node) for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_field" for node in ast.walk(fn)
    }
    found = []
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or id(handler) in helper:
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc).rsplit(".", 1)[-1] == "CliError":
                    found.append(node.lineno)
    return sorted(found)


def test_field_guard_sees_a_planted_spelling():
    planted = (
        "def _field(name):\n"
        "    try:\n        yield\n"
        "    except ValueError as exc:\n        raise CliError(name) from exc\n\n\n"
        "def parse(text):\n"
        "    try:\n        return float(text)\n"
        "    except ValueError:\n        raise cli.CliError('x: bad')\n"
        "    except OSError:\n        raise ValueError('not a refusal')\n\n\n"
        "try:\n    parse('1')\nexcept KeyError:\n    raise CliError\n"
    )
    assert _field_breaches(planted) == [12, 20]


def test_every_refusal_of_a_library_error_goes_through_the_field_helper():
    assert _field_breaches(Path(cli.__file__).read_text()) == []


def test_cu_reports_state_the_levels_they_ran():
    # the disc exhaustion has two levels whatever --levels says
    for argv, levels in (
        (["cu-iso-test", "--levels", "4", "--grid-count", "1024"], "4"),
        (["cu-iso-test", "--domain", "disc", "--levels", "7"], "2"),
    ):
        code, out, _ = _contract_run(argv)
        assert code == PASS and f"levels={levels}" in out.splitlines(), argv


def test_broken_config_invalid(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{")
    code, _, err = run_cli(capsys, "frullani", "--config", str(cfg))
    assert code == INVALID
    assert "config" in err


@pytest.mark.parametrize(
    "name",
    [
        "theta-check", "frullani", "separate", "recover-measure",
        "hol-iso-test", "hol-characterize", "three-circle",
        "cu-iso-test", "cu-recover", "cu-decomp-bound",
    ],
)
def test_selftests_pass(name, capsys):
    code, _, _ = run_cli(capsys, name, "--selftest")
    assert code == PASS


def test_emit_figure_selftest(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "emit-figure", "--selftest", "--out", str(tmp_path))
    assert code == PASS
    assert (tmp_path / "fig1-gauges.csv").exists()


def test_emit_figure_selftest_needs_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "emit-figure", "--selftest")
    assert (code, out) == (INVALID, "")
    assert err.startswith("error=out: ")
    assert list(tmp_path.iterdir()) == []


def _selftest(capsys, tmp_path, name, *argv):
    out_dir = ["--out", str(tmp_path)] if name == "emit-figure" else []
    return run_cli(capsys, name, "--selftest", *argv, *out_dir)


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("name", sorted(_HANDLERS))
def test_selftests_pass_at_the_run_seed(name, seed, tmp_path, capsys):
    code, out, _ = _selftest(capsys, tmp_path, name, "--seed", str(seed))
    assert code == PASS
    assert _echo(out)["seed"] == seed
    keys = {line.split("=", 1)[0] for line in out.splitlines()}
    assert {f"{case}.exit_code" for case, _, _ in _SELFTESTS[name]} <= keys


def test_selftest_body_follows_the_seed(tmp_path, capsys):
    bodies = []
    for seed in ("1", "2"):
        _, out, _ = _selftest(capsys, tmp_path, "hol-iso-test", "--seed", seed)
        bodies.append([line for line in out.splitlines() if not line.startswith("config=")])
    assert bodies[0] != bodies[1]


def test_selftest_cases_cover_every_subcommand_with_valid_params():
    assert sorted(_SELFTESTS) == sorted(_HANDLERS)
    for name, cases in _SELFTESTS.items():
        assert cases, name
        for case, params, expect in cases:
            assert "exit_code" in expect, (name, case)
            for key, value in params.items():
                assert key in _HANDLERS[name][1], (name, case, key)
                assert _checked(key, _PARAMS[key][0], value) == value


@pytest.mark.parametrize("name", sorted(_HANDLERS))
def test_planted_wrong_expectation_fails_the_selftest(name, tmp_path, monkeypatch, capsys):
    *kept, (case, params, expect) = _SELFTESTS[name]
    wrong = {**expect, "exit_code": FINDING if expect["exit_code"] == PASS else PASS}
    monkeypatch.setitem(_SELFTESTS, name, (*kept, (case, params, wrong)))
    code, out, _ = _selftest(capsys, tmp_path, name)
    assert code == FINDING
    assert f"{case}.exit_code={expect['exit_code']}" in out.splitlines()


def test_report_written_to_out_matches_stdout(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "theta-check", "--gauge", "exp", "--out", str(tmp_path)
    )
    assert code == PASS
    assert (tmp_path / "theta-check-report.txt").read_text() == out


def test_repeated_runs_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        run_cli(capsys, "cu-recover", "--seed", "5", "--grid-count", "1024", "--out", str(d))
    assert (a / "cu-recover-report.txt").read_bytes() == (b / "cu-recover-report.txt").read_bytes()
    assert (a / "recovered-weight.txt").read_bytes() == (b / "recovered-weight.txt").read_bytes()


def test_disc_recovered_files_hold_one_row_per_distinct_node(tmp_path, capsys):
    argv = ["--domain", "disc", "--radial-count", "64", "--angle-count", "128", "--map", "twist"]
    code, out, _ = run_cli(capsys, "cu-recover", *argv, "--out", str(tmp_path))
    assert code == PASS
    nodes = int(dict(line.split("=", 1) for line in out.strip().splitlines())["nodes"])
    for name in ("recovered-weight.txt", "recovered-map.txt"):
        x, y, re, im = read_columns(tmp_path / name)
        assert x.size == nodes and (x[0], y[0]) == (0.0, 0.0)  # the centre, once
        assert np.all(np.hypot(x[1:], y[1:]) > 0)


def test_fig1_curves(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "emit-figure", "--which", "fig1", "--out", str(tmp_path))
    assert code == PASS
    lines = (tmp_path / "fig1-gauges.csv").read_text().splitlines()
    assert lines[0] == "t,theta_clip,theta_exp,theta_rational1"
    row_at_one = lines[101].split(",")
    assert row_at_one[0] == "1.0"
    assert row_at_one[1] == "1.0"  # theta_clip(1) = 1 exactly
    assert float(lines[-1].split(",")[0]) == 5.0


def test_fig2_fixes_named_points(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "emit-figure", "--which", "fig2", "--out", str(tmp_path))
    assert code == PASS
    for name in ("increasing", "decreasing"):
        text = (tmp_path / f"fig2-{name}.csv").read_text().splitlines()
        pts = {tuple(map(float, ln.split(","))) for ln in text[1:]}
        if name == "increasing":
            for x in (0.2, 0.5, 0.8):
                assert (x, x) in pts
        else:
            assert (0.5, 0.5) in pts
            assert (0.2, 0.8) in pts and (0.8, 0.2) in pts


def test_fig3_preserves_circle_radii(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "emit-figure", "--which", "fig3", "--out", str(tmp_path))
    assert code == PASS
    lines = (tmp_path / "fig3-field.csv").read_text().splitlines()[1:]
    for ln in lines:
        r, _, xb, yb, xa, ya = map(float, ln.split(","))
        assert abs(np.hypot(xb, yb) - r) < 1e-12
        assert abs(np.hypot(xa, ya) - r) < 1e-12


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "isolab", "theta-check", "--gauge", "rational"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all_pass=true" in proc.stdout


def _child(*argv):
    """(exit code, stdout, stderr) of a fresh `python -m isolab` process, which
    sees none of the test run's warning filters."""
    proc = subprocess.run([sys.executable, "-m", "isolab", *argv], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_theta_check_where_t_alpha_overflows():
    code, out, err = _child("theta-check", "--gauge", "rational", "--alpha", "400")
    assert code == FINDING and "RuntimeWarning" not in err
    assert "subadditive.passed=false\nsubadditive.worst_gap=1.0\n" in out


def test_hol_iso_test_reports_a_maximum_past_the_float_range_without_a_warning():
    # 5e307 |f| leaves the float range on the outer circles: the gap is inf, silently
    code, out, err = _child("hol-iso-test", "--op", "scale", "--factor", "5e307")
    assert code == FINDING and "max_gap=inf\n" in out and err == ""


def test_hol_iso_test_names_the_matrix_whose_images_overflow(tmp_path):
    code, out, err = _child("hol-iso-test", "--op", "scale", "--factor", "1e308")
    assert (code, out) == (INVALID, "") and "RuntimeWarning" not in err
    assert err.startswith("error=factor: ")
    op_file = tmp_path / "m.txt"
    # re/im pairs: the identity on 1 and z, so characterization reaches the probe replay
    m = np.diag([1.0, 1.0] + [1.7e308] * 7)
    write_columns(op_file, *np.kron(m, [1.0, 0.0]).T)
    for sub in ("hol-iso-test", "hol-characterize"):
        code, out, err = _child(sub, "--op", "matrix", "--op-file", str(op_file))
        assert (code, out) == (INVALID, "") and "RuntimeWarning" not in err
        assert err.startswith("error=op_file: "), sub
    code, out, err = _child("hol-iso-test", "--op", "scale", "--factor", "1e200")
    assert code == FINDING and "passed=false" in out and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["frullani", "--rho", "1e300"],
        ["frullani", "--gauge", "exp", "--tol", "1e-300"],
        ["frullani", "--gauge", "rational", "--alpha", "0.03"],
        ["separate", "--vec-a", "1e308,1e308", "--vec-b", "1,2"],
    ],
)
def test_arguments_past_the_float_range_run_without_a_warning(argv):
    # e^w and t a_n overflow to inf, where every builtin gauge is exactly 1
    code, out, err = _child(*argv)
    assert (code, err) == (PASS, "") and "exit_code=0\n" in out


def test_hol_characterize_refuses_circle_samples_past_the_float_range_without_a_warning(tmp_path):
    # the identity with column 1 = (0, 1.5e308, 1.5e308, 0, ...): phi's circle samples overflow
    m = np.eye(9)
    m[:, 1] = 0.0
    m[1:3, 1] = 1.5e308
    op_file = tmp_path / "m.txt"
    write_columns(op_file, *np.kron(m, [1.0, 0.0]).T)
    code, out, err = _child("hol-characterize", "--op", "matrix", "--op-file", str(op_file))
    assert (code, err) == (FINDING, "")
    assert "failed_check=circle-preservation\n" in out
    assert "certificate.circle_preservation_gap=inf\n" in out


def test_hol_characterize_refuses_a_nan_circle_gap_without_a_warning(tmp_path):
    # the identity with column 1 = (0, 1.7e308 x4, 0, ...): phi's circle samples
    # overflow to NaN, which refuses circle preservation before linearity squares them
    m = np.eye(9)
    m[:, 1] = 0.0
    m[1:5, 1] = 1.7e308
    op_file = tmp_path / "m.txt"
    write_columns(op_file, *np.kron(m, [1.0, 0.0]).T)
    code, out, err = _child("hol-characterize", "--op", "matrix", "--op-file", str(op_file))
    assert (code, err) == (FINDING, "")
    assert "failed_check=circle-preservation\n" in out
    assert "certificate.circle_preservation_gap=nan\n" in out
