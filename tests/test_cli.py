import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isolab.cli import (
    _HANDLERS, _PARAMS, PASS, FINDING, INVALID, ExperimentConfig, build_parser, main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_json_roundtrip_bit_exact():
    cfg = ExperimentConfig(
        "separate", seed=7, tol=1e-7, out=None,
        params={"gauge": "exp", "vec_a": "1,2", "weights": "uniform:2"},
    )
    clone = ExperimentConfig.from_json(cfg.to_json())
    assert clone == cfg
    assert clone.to_json() == cfg.to_json()


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


def test_hol_characterize_scale_finding(capsys):
    code, out, _ = run_cli(capsys, "hol-characterize", "--op", "scale")
    assert code == FINDING
    assert "failed_check=unimodularity" in out


def test_three_circle_monomial(capsys):
    code, out, _ = run_cli(capsys, "three-circle", "--monomial", "3")
    assert code == PASS
    assert "rigidity_flag=true" in out


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
            "--weights", "uniform:2", "--seed", "4", "--tol", "1e-8"]
    code, out, _ = run_cli(capsys, *argv)
    echo = dict(line.split("=", 1) for line in out.splitlines())["config"]
    cfg = tmp_path / "echo.json"
    cfg.write_text(echo)
    rerun_code, rerun_out, _ = run_cli(capsys, "separate", "--config", str(cfg))
    assert (rerun_code, rerun_out) == (code, out)


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
    ],
)
def test_parameter_table_contract(argv, config, field, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == INVALID
    assert out == ""
    assert field in err


def test_main_returns_argparse_exit_codes(capsys):
    # no SystemExit handling here: main must return the code, not raise it
    assert main(["theta-check", "--positions", "1"]) == INVALID
    assert "positions" in capsys.readouterr().err
    assert main(["hol-iso-test", "--levels", "nan"]) == INVALID
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
    takes = _HANDLERS[name][2]
    keys = draw(st.lists(st.sampled_from(takes), unique=True, max_size=4))
    # keep disc grids small even when the counts are not drawn
    keys += [k for k in takes if k in _COUNTS and k not in keys]
    pairs = [(k, draw(st.sampled_from(_POOLS.get(k) or _POOLS[_PARAMS[k][0]]))) for k in keys]
    return name, pairs


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_exit_code_contract_fuzz(tmp_path_factory, case):
    name, pairs = case
    argv = [name, "--seed", "3"]
    if name == "emit-figure":
        argv += ["--out", str(tmp_path_factory.mktemp("fig"))]
    for key, value in pairs:
        argv += ["--" + key.replace("_", "-"), value]
    code = main(argv)
    assert code in (PASS, FINDING, INVALID), argv
    if any(_nonfinite(v) for _, v in pairs):
        assert code == INVALID, argv


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
