"""Seeded workloads of the isolab benchmark.

Each workload turns a seed into a deterministic stream of operations.  Op
number i always gets the same inputs for the same seed, whatever ran before
it, because its random draws come from a generator keyed by (seed, workload,
i).  Op kinds follow a fixed interleaved cycle, so the mix of kinds in a run
does not depend on the seed and a run cut by its time limit still holds close
to the nominal shares.

An op is a call into isolab plus an expectation and a gate that compares the
call's result with it.  Expected refusals are caught inside the call and
returned as the result, so the gate can check that the right check refused.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from isolab import cli, contspace, gauges, holodisc, recovery

WARMUP_BASE = 1_000_000_000
"""Op indices from here on are warm-up ops; timed ops use 0, 1, 2, ..."""

HELD_OUT_SEED = 7919
"""Seed kept out of tuning; confirm a later claim on it before accepting it."""


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    expect: Any
    check: Callable[[Any, Any], bool]
    data: tuple = ()
    """Generated inputs as plain numbers and arrays, hashed by fingerprint()."""


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(np.ascontiguousarray(np.asarray(item)).tobytes())
        h.update(b"|")
    return h.hexdigest()


class Workload:
    name = ""
    cycle: tuple = ()
    _id = 0

    def __init__(self, seed: int):
        self.seed = int(seed)

    def rng(self, i: int):
        return np.random.default_rng([self.seed, self._id, i])

    def kind(self, i: int) -> str:
        return self.cycle[i % len(self.cycle)]

    def make(self, i: int, kind: str | None = None) -> Op:
        kind = self.kind(i) if kind is None else kind
        return getattr(self, "_op_" + kind)(self.rng(i))

    def warmups(self):
        """One op of each kind, with inputs outside the timed index range."""
        kinds = list(dict.fromkeys(self.cycle))
        return [self.make(WARMUP_BASE + k, kind) for k, kind in enumerate(kinds)]

    def fingerprint(self, count: int = 16) -> str:
        ops = [self.make(i) for i in range(count)]
        return _digest([op.kind.encode() for op in ops] + [d for op in ops for d in op.data])


# ---------------------------------------------------------------------------
# recover: measure recovery roundtrips on the log line
# ---------------------------------------------------------------------------


def _separated_positions(rng, k, lo=-2.5, hi=2.5, gap=1.0):
    while True:
        p = np.sort(rng.uniform(lo, hi, size=k))
        if k == 1 or np.min(np.diff(p)) >= gap:
            return p


def _masses(rng, k, lo=0.15, hi=0.4):
    while True:
        m = rng.uniform(lo, hi, size=k)
        if m.sum() <= 1.0:
            return m


def _recovered_within(rep, expect) -> bool:
    got = rep.recovered
    if got is None or len(got.positions) != len(expect.positions):
        return False
    dp = np.max(np.abs(np.subtract(got.positions, expect.positions)))
    dm = np.max(np.abs(np.subtract(got.masses, expect.masses)))
    return bool(dp < 1e-3 and dm < 1e-3)


def _count_mismatch(rep, expect) -> bool:
    return (not rep.passed) and bool(np.isinf(rep.max_position_error)) and expect == "count"


def _refused_with(res, expect) -> bool:
    """A refusal naming the expected check (or, lacking one, its message)."""
    if not isinstance(res, Exception):
        return False
    check = getattr(res, "check", None)
    return check == expect if check is not None else expect in str(res)


class Recover(Workload):
    """recovery.roundtrip_check on 1-3 atom log measures, three gauges.

    Cycle of 20: 18 roundtrips (6 each of rational(2), clip, exp), one
    count-mismatch refusal (two atoms 2e-4 apart) and one alias refusal
    (a 17-frequency grid), so 10% of ops are expected refusals.
    """

    name = "recover"
    _id = 1

    def __init__(self, seed):
        super().__init__(seed)
        self.gauges = {
            "rat2": gauges.make_builtin_gauge("rational", alpha=2.0),
            "clip": gauges.make_builtin_gauge("clip"),
            "exp": gauges.make_builtin_gauge("exp"),
        }
        self.spec = recovery.RecoverySpec()
        self.alias_spec = recovery.RecoverySpec(frequency_grid=tuple(np.linspace(-8.0, 8.0, 17)))
        rt = [f"rt_{g}" for g in ("rat2", "clip", "exp")] * 6
        self.cycle = tuple(rt[:9] + ["close"] + rt[9:] + ["alias"])

    def transform_key(self, kind: str):
        """What the kernel transform of an op depends on: gauge, shift, grid, quadrature."""
        gauge = kind[3:] if kind.startswith("rt_") else "exp"
        spec = self.alias_spec if kind == "alias" else self.spec
        return (gauge, spec.shift, spec.frequency_grid, spec.quadrature)

    def _roundtrip(self, gname, rng):
        k = int(rng.integers(1, 4))
        nu = recovery.LogMeasure(tuple(_separated_positions(rng, k)), tuple(_masses(rng, k)))
        g, spec = self.gauges[gname], self.spec
        return Op(
            f"rt_{gname}",
            lambda: recovery.roundtrip_check(g, nu, spec, k),
            nu,
            _recovered_within,
            (nu.positions, nu.masses),
        )

    def _op_rt_rat2(self, rng):
        return self._roundtrip("rat2", rng)

    def _op_rt_clip(self, rng):
        return self._roundtrip("clip", rng)

    def _op_rt_exp(self, rng):
        return self._roundtrip("exp", rng)

    def _op_close(self, rng):
        p = float(rng.uniform(-2.5, 2.5))
        nu = recovery.LogMeasure((p, p + 2e-4), tuple(_masses(rng, 2)))
        g, spec = self.gauges["exp"], self.spec
        return Op(
            "close",
            lambda: recovery.roundtrip_check(g, nu, spec, 2),
            "count",
            _count_mismatch,
            (nu.positions, nu.masses),
        )

    def _op_alias(self, rng):
        nu = recovery.LogMeasure((float(rng.uniform(-2.5, 2.5)),), (float(rng.uniform(0.15, 0.4)),))
        g, spec = self.gauges["exp"], self.alias_spec

        def call():
            s, h = recovery.smoothed_curve_samples(g, nu, spec)
            try:
                return recovery.recover_measure(g, s, h, spec, 1)
            except recovery.RecoveryFailed as exc:
                return exc

        return Op("alias", call, "alias", _refused_with, (nu.positions, nu.masses))


# ---------------------------------------------------------------------------
# disc: circle maxima and isometry characterization, no scipy, no quadrature
# ---------------------------------------------------------------------------

RADII3 = (0.25, 0.5, 0.75)


def _three_circle_ok(rep, expect_monomial) -> bool:
    if rep.slack < -1e-12 or rep.rigidity_flag != rep.monomial:
        return False
    if rep.monomial != expect_monomial:
        return False
    return (not expect_monomial) or abs(rep.slack) <= 1e-10


def _symbols_match(ch, expect) -> bool:
    if not isinstance(ch, holodisc.Characterization):
        return False
    alpha, beta = expect
    return abs(ch.scalar_alpha - alpha) + abs(ch.scalar_beta - beta) < 1e-10


class Disc(Workload):
    """holodisc only: three-circle checks and opaque-matrix characterization.

    Cycle of 20: 16 three_circle_check on random_taylor draws of degree
    1-24, one on a monomial, and three characterize_isometry calls on
    opaque 24x24 rotation matrices over DiscExhaustion.default(4).  The
    characterization family rotates through sup, hp(1), hp(3) and a doubled
    rotation, which must be refused by the unimodularity check.
    """

    name = "disc"
    _id = 2
    _families = ("char_sup", "char_hp1", "char_hp3", "double")

    def __init__(self, seed):
        super().__init__(seed)
        self.circles = holodisc.DiscExhaustion.default(4)
        self.cycle = tuple(
            "char" if j in (5, 11, 17) else "mono" if j == 8 else "tc" for j in range(20)
        )

    def kind(self, i):
        kind = super().kind(i)
        if kind == "char":
            slot = (i // 20) * 3 + (i % 20) // 6
            kind = self._families[slot % 4]
        return kind

    def warmups(self):
        kinds = ("tc", "mono") + self._families
        return [self.make(WARMUP_BASE + k, kind) for k, kind in enumerate(kinds)]

    def _op_tc(self, rng):
        f = holodisc.random_taylor(rng, int(rng.integers(1, 25)), min_significant=2)
        return Op(
            "tc", lambda: holodisc.three_circle_check(f, *RADII3), False, _three_circle_ok, (f.array,)
        )

    def _op_mono(self, rng):
        k = int(rng.integers(0, 21))
        c = complex(rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        f = holodisc.TaylorFunction((0.0,) * k + (c,))
        return Op(
            "mono", lambda: holodisc.three_circle_check(f, *RADII3), True, _three_circle_ok, (f.array,)
        )

    def _characterize(self, kind, rng, family, scale=1.0):
        alpha = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        beta = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        m = holodisc.operator_matrix(holodisc.RotationOperator(alpha, beta), 24)
        if scale != 1.0:
            m = holodisc.MatrixOperator(scale * m.array)
        circles, probe_rng = self.circles, np.random.default_rng(1)

        def call():
            try:
                return holodisc.characterize_isometry(m, circles, family, rng=probe_rng)
            except holodisc.NotCharacterizable as exc:
                return exc

        if scale != 1.0:
            return Op(kind, call, "unimodularity", _refused_with, (alpha, beta))
        return Op(kind, call, (alpha, beta), _symbols_match, (alpha, beta))

    def _op_char_sup(self, rng):
        return self._characterize("char_sup", rng, holodisc.SupFamily())

    def _op_char_hp1(self, rng):
        return self._characterize("char_hp1", rng, holodisc.HpFamily(1))

    def _op_char_hp3(self, rng):
        return self._characterize("char_hp3", rng, holodisc.HpFamily(3))

    def _op_double(self, rng):
        return self._characterize("double", rng, holodisc.SupFamily(), scale=2.0)


# ---------------------------------------------------------------------------
# grid: continuous functions on interval and disc grids
# ---------------------------------------------------------------------------


def _symbol_ok(sym, expect) -> bool:
    if not isinstance(sym, contspace.RecoveredSymbol):
        return False
    h, phi, grid = expect
    nodes = grid.array if isinstance(grid, contspace.IntervalGrid) else grid.nodes
    weight_err = np.max(np.abs(sym.weight.array - h.array))
    map_err = np.max(np.abs(sym.point_map.array - phi(nodes)))
    return bool(weight_err < 1e-12 and map_err <= grid.cell)


def _bound_holds(rep, expect) -> bool:
    return rep.passed and rep.worst_slack >= expect


def _isometric(rep, expect) -> bool:
    return rep.passed == expect


class Grid(Workload):
    """contspace only: weighted composition recovery and the zigzag fold.

    Cycle of 24: six interval recoveries on 4096 nodes (increasing and
    decreasing maps), eleven on 128x256 disc grids, three on the 256x512
    disc grid the CLI uses by default, two zigzag-fold refusals
    (injectivity), one decomposition bound and one isometry test on the fold
    with 20 probes.  The shares put the median inside the 128x256 cluster
    and the 90th percentile inside the 256x512 one (12.5% of ops), not on
    the edge between two clusters.
    """

    name = "grid"
    _id = 3
    cycle = (
        "int_inc", "disc128", "zig", "disc128", "disc256", "int_dec", "disc128", "decomp",
        "disc128", "int_inc", "disc128", "int_dec", "disc256", "disc128", "zig", "disc128",
        "int_inc", "disc128", "disc128", "iso", "disc256", "disc128", "int_dec", "disc128",
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.exh = contspace.Exhaustion1D.default(3)
        self.grid = contspace.IntervalGrid.build(self.exh, 4096)
        self.dexh = contspace.ExhaustionDisc.default()
        self.disc_grids = {
            "disc128": contspace.DiscGrid.build(self.dexh, 128, 256),
            "disc256": contspace.DiscGrid.build(self.dexh, 256, 512),
        }
        self.fold = contspace.build_zigzag_fold(self.exh, self.grid)

    def _recover(self, kind, T, exh, grid, probe_seed, expect, check, data):
        def call():
            try:
                return contspace.recover_weight_and_map(
                    T, exh, grid, rng=np.random.default_rng(probe_seed)
                )
            except contspace.NotWeightedComposition as exc:
                return exc

        return Op(kind, call, expect, check, data)

    def _interval(self, kind, rng, orientation):
        h = contspace.unimodular_field(self.grid, rng)
        phi = contspace.random_interval_homeo(self.exh, rng, orientation)
        T = contspace.make_composition_operator(h, phi)
        return self._recover(
            kind, T, self.exh, self.grid, int(rng.integers(2**31)),
            (h, phi, self.grid), _symbol_ok, (h.array, phi.xs, phi.ys),
        )

    def _op_int_inc(self, rng):
        return self._interval("int_inc", rng, "increasing")

    def _op_int_dec(self, rng):
        return self._interval("int_dec", rng, "decreasing")

    def _disc(self, kind, rng):
        grid = self.disc_grids[kind]
        h = contspace.unimodular_field(grid, rng)
        phi = contspace.random_annulus_homeo(self.dexh, rng)
        T = contspace.make_composition_operator(h, phi)
        return self._recover(
            kind, T, self.dexh, grid, int(rng.integers(2**31)),
            (h, phi, grid), _symbol_ok, (h.array, phi.twist_breaks, phi.twist_values),
        )

    def _op_disc128(self, rng):
        return self._disc("disc128", rng)

    def _op_disc256(self, rng):
        return self._disc("disc256", rng)

    def _folded(self, rng):
        h = contspace.unimodular_field(self.grid, rng)
        return h, contspace.make_composition_operator(h, self.fold)

    def _op_zig(self, rng):
        h, T = self._folded(rng)
        return self._recover(
            "zig", T, self.exh, self.grid, int(rng.integers(2**31)),
            "injectivity", _refused_with, (h.array,),
        )

    def _probes(self, rng, count=20):
        return [contspace.random_probe(self.grid, rng) for _ in range(count)]

    def _op_decomp(self, rng):
        h, T = self._folded(rng)
        probes, exh = self._probes(rng), self.exh
        return Op(
            "decomp",
            lambda: contspace.decomposition_bound_check(T, exh, probes),
            0.0,
            _bound_holds,
            (h.array, *(p.array for p in probes)),
        )

    def _op_iso(self, rng):
        h, T = self._folded(rng)
        probes, exh = self._probes(rng), self.exh
        return Op(
            "iso",
            lambda: contspace.isometry_test_grid(T, exh, probes),
            True,
            _isometric,
            (h.array, *(p.array for p in probes)),
        )


# ---------------------------------------------------------------------------
# cli: fresh `python -m isolab <sub>` processes, one at a time
# ---------------------------------------------------------------------------

SUBCOMMANDS = (
    "theta-check", "frullani", "separate", "recover-measure", "hol-iso-test",
    "hol-characterize", "three-circle", "cu-iso-test", "cu-recover",
    "cu-decomp-bound", "emit-figure",
)


@dataclass
class ChildResult:
    code: int
    report: bytes
    maxrss_kb: int


def _report_stable(res, expect) -> bool:
    first, argv = expect
    return res.code == 0 and res.report == first.setdefault(argv, res.report)


class Cli(Workload):
    """Every subcommand once with its defaults and once with --selftest.

    23 argvs in a fixed order: the eleven default runs and
    `cu-recover --domain disc` first, then the eleven selftests.  Every argv
    carries a `--seed` drawn from the benchmark seed.  Each op is a fresh
    interpreter, so it pays import, config resolution, report rendering and
    every first-call cost.
    """

    name = "cli"
    _id = 4

    def __init__(self, seed, root: Path, workdir: Path):
        super().__init__(seed)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.workdir = workdir
        labels = list(SUBCOMMANDS)
        labels.insert(9, "cu-recover --domain disc")
        labels += [f"{sub} --selftest" for sub in SUBCOMMANDS]
        fig = ["--out", str(workdir / "figures")]
        seeds = np.random.default_rng([self.seed, self._id]).integers(0, 2**31, size=len(labels))
        self.cycle = tuple(labels)
        self.argvs = tuple(
            tuple(label.split() + (fig if label.startswith("emit-figure") else []) + ["--seed", str(s)])
            for label, s in zip(labels, seeds)
        )
        self.first_reports: dict = {}
        self.child_rss_kb: list = []

    def make(self, i, kind=None):
        argv = self.argvs[i % len(self.argvs)]
        return Op(
            self.kind(i),
            lambda: self.run_child(argv),
            (self.first_reports, argv),
            _report_stable,
            (" ".join(argv).encode(),),
        )

    def warmups(self):
        return [self.make(0)]

    def run_child(self, argv) -> ChildResult:
        """One CLI process; its own peak RSS comes from wait4."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "isolab", *argv],
            cwd=self.workdir,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            report = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        return ChildResult(proc.returncode, report, usage.ru_maxrss)

    def in_process_ops(self):
        """The same argvs for an in-process `cli.main` pass (tracing only)."""
        def main_op(label, argv):
            def call():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(argv))
                return ChildResult(code, out.getvalue().encode(), 0)

            return Op(label, call, (self.in_process_reports, argv), _report_stable)

        self.in_process_reports = {}
        return [main_op(label, argv) for label, argv in zip(self.cycle, self.argvs)]


WORKLOADS = {w.name: w for w in (Recover, Disc, Grid, Cli)}
