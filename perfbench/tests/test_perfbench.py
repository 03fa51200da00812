"""Tests of the benchmark itself: statistics, tracing and correctness gates.

Run from the repository root with `python -m pytest perfbench/tests -q`.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# -- the percentile rule ------------------------------------------------------


def test_p90_supported_with_ten_beyond():
    value, beyond, supported = run.p90([float(x) for x in range(100)])
    assert beyond == 10 and supported
    assert 89.0 <= value < 90.0


def test_p90_unsupported_below_ten_beyond():
    for n in (1, 2, 23, 90):
        _, beyond, supported = run.p90([float(x) for x in range(n)])
        assert beyond < 10 and not supported


def test_p50_averages_the_medians_of_whole_cycles():
    times = [1.0, 2.0, 9.0, 3.0, 4.0, 8.0, 100.0]  # two cycles of 3, one op left over
    assert run.cycle_median(times, 3) == pytest.approx((2.0 + 4.0) / 2)
    assert run.cycle_median(times[:2], 3) == pytest.approx(1.5)


# -- self time ----------------------------------------------------------------


def _span(name, start, end, parent, op=0):
    s = tracing.Span(name, start, parent, op)
    s.end = end
    return s


def test_self_time_of_nested_spans():
    spans = [
        _span("op", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # self times under an op account for its whole duration
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("op", 0.0, 10.0, None),
        _span("a", 1.0, 6.0, 0),
        _span("b", 4.0, 12.0, 0),  # overlaps a and runs past its parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_install_restores_every_name():
    from isolab import contspace, holodisc, recovery

    before = (recovery.least_squares, contspace.cKDTree, holodisc.MatrixOperator.apply)
    t = tracing.Tracer()
    tracing.install(t)
    assert recovery.least_squares is not before[0]
    assert contspace.cKDTree is not before[1]
    t.restore()
    after = (recovery.least_squares, contspace.cKDTree, holodisc.MatrixOperator.apply)
    assert all(a is b for a, b in zip(before, after))


def test_traced_op_is_covered_by_self_times():
    w = workloads.Disc(3)
    t = tracing.Tracer()
    loop = run.Loop()
    tracing.install(t)
    try:
        loop.run(w.make, 0.0, min_ops=21, tracer=t, op_ids=lambda i: i)
    finally:
        t.restore()
    metrics = tracing.layer_metrics(t, set(range(21)), set())
    assert metrics["trace.self_coverage"][0] == pytest.approx(1.0)
    assert metrics["holodisc.sup_seminorm_calls"][0] > 0
    assert loop.failed == 0


# -- inputs from a seed -------------------------------------------------------


@pytest.mark.parametrize("name", ["recover", "disc", "grid", "cli"])
def test_inputs_are_deterministic_in_the_seed(name, tmp_path):
    def build(seed):
        if name == "cli":
            return workloads.Cli(seed, BENCH.parent, tmp_path)
        return workloads.WORKLOADS[name](seed)

    assert build(5).fingerprint(8) == build(5).fingerprint(8)
    assert build(5).fingerprint(8) != build(6).fingerprint(8)
    assert build(5).fingerprint(8) != build(workloads.HELD_OUT_SEED).fingerprint(8)


# -- the correctness gate -----------------------------------------------------


def _first_of_each_kind(w, count):
    seen, ops = set(), []
    for i in range(count):
        op = w.make(i)
        if op.kind not in seen:
            seen.add(op.kind)
            ops.append(op)
    return ops


def _smoke(ops, spoil):
    """Run ops as given, then again with one expectation spoiled."""
    good = run.Loop()
    good.run(lambda i: ops[i], 0.0, min_ops=len(ops))
    assert good.failed == 0
    spoil(ops)
    bad = run.Loop()
    bad.run(lambda i: ops[i], 0.0, min_ops=len(ops))
    assert bad.attempted == len(ops)  # the run goes on after a failure
    return bad.failed


def test_gate_trips_on_recover():
    ops = _first_of_each_kind(workloads.Recover(1), 20)

    def spoil(ops):
        nu = ops[0].expect
        ops[0].expect = type(nu)(tuple(p + 0.01 for p in nu.positions), nu.masses)
        ops[-1].expect = "residual"  # the alias refusal is expected to name alias

    assert _smoke(ops, spoil) == 2


def test_gate_trips_on_disc():
    ops = _first_of_each_kind(workloads.Disc(1), 80)

    def spoil(ops):
        for op in ops:
            if op.kind == "tc":
                op.expect = True  # claim a random draw is a monomial
            elif op.kind == "double":
                op.expect = "linearity"

    assert _smoke(ops, spoil) == 2


def test_gate_trips_on_grid():
    w = workloads.Grid(1)
    ops = [w.make(i) for i in (0, 2, 7)]  # int_inc, zig, decomp

    def spoil(ops):
        h, phi, grid = ops[0].expect
        ops[0].expect = (h, lambda x: phi(x) + 2 * grid.cell, grid)
        ops[1].expect = "surjectivity"
        ops[2].expect = 1.0  # demand more slack than the bound leaves

    assert _smoke(ops, spoil) == 3


def test_unexpected_exception_is_counted_and_run_goes_on():
    ops = [workloads.Op("boom", lambda: 1 / 0, None, lambda r, e: True)] * 3
    loop = run.Loop()
    loop.run(lambda i: ops[i], 0.0, min_ops=3)
    assert (loop.attempted, loop.failed) == (3, 3)


def test_gate_trips_on_cli(tmp_path):
    w = workloads.Cli(1, BENCH.parent, tmp_path)
    ops = [w.make(0)]

    def spoil(ops):
        first, argv = ops[0].expect
        first[argv] = first[argv] + b"tampered\n"

    assert _smoke(ops, spoil) == 1


def test_cli_child_reports_its_own_peak_rss(tmp_path):
    w = workloads.Cli(1, BENCH.parent, tmp_path)
    res = w.make(0).call()
    assert res.code == 0 and res.maxrss_kb > 0
    assert w.child_rss_kb == [res.maxrss_kb]


def test_recover_transform_reuse_share():
    w = workloads.Recover(1)
    kinds = [w.kind(i) for i in range(40)]
    # four distinct transforms: three gauges on the default grid, exp on 17
    assert run.kernel_reuse_share(w, kinds) == pytest.approx(36 / 40)
    assert run.kernel_reuse_share(workloads.Disc(1), kinds) == 0.0


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    script = tmp_path / "perfbench" / "run.py"
    script.write_text((BENCH / "run.py").read_text())
    out = subprocess.run(
        [sys.executable, str(script), "--workload", "disc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_mix_matches_the_stated_shares():
    grid = workloads.Grid(1)
    kinds = [grid.kind(i) for i in range(240)]
    assert kinds.count("disc256") == 30  # 12.5%
    assert kinds.count("disc128") + kinds.count("int_inc") + kinds.count("int_dec") == 170
    disc = workloads.Disc(1)
    kinds = [disc.kind(i) for i in range(80)]
    assert kinds.count("tc") == 64 and kinds.count("mono") == 4
    assert all(kinds.count(k) == 3 for k in ("char_sup", "char_hp1", "char_hp3", "double"))
    rec = workloads.Recover(1)
    kinds = [rec.kind(i) for i in range(20)]
    assert kinds.count("close") == 1 and kinds.count("alias") == 1
    assert np.all([kinds.count(f"rt_{g}") == 6 for g in ("rat2", "clip", "exp")])
