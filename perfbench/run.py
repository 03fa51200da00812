#!/usr/bin/env python3
"""isolab benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 24 --trace 0

Run it from a checkout of the repository; it imports isolab from the
checkout's `src/` and writes only under `.perfbench_work/` there.  One
process issues one op at a time and starts the next only when the previous
one has finished; the `cli` workload starts one child process per op and
none run in parallel.  BLAS keeps its default thread count.

`--trace 0` measures the end-to-end metrics with no wrappers installed.
`--trace 1` measures the per-layer metrics: half of the time runs untraced,
half with the outside-in tracer, and the ratio of the two throughputs is the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it list each
metric with its unit and sample count, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def p90(samples):
    """(value, beyond, supported): the 90th percentile and how many samples exceed it.

    A tail percentile is supported only when at least ten samples lie
    beyond it; an unsupported one is printed as such and backs no claim.
    """
    if len(samples) < 2:
        value = samples[0] if samples else 0.0
    else:
        value = statistics.quantiles(samples, n=10, method="inclusive")[8]
    beyond = sum(x > value for x in samples)
    return value, beyond, beyond >= 10


def cycle_median(times, cycle):
    """Median op time within each whole cycle of op kinds, averaged over cycles.

    Every cycle holds the same mix of kinds.  The shared machine this was
    tuned on switches between a fast and a slow CPU state every few seconds;
    a whole-run median then jumps between the two states' clusters, while this
    average moves in proportion to the time spent in each.  A run shorter
    than one cycle falls back to the plain median.
    """
    whole = len(times) // cycle
    if whole == 0:
        return statistics.median(times)
    return statistics.fmean(
        statistics.median(times[k * cycle:(k + 1) * cycle]) for k in range(whole)
    )


def cpu_steal() -> int:
    """Clock ticks stolen from this machine's CPUs by its host, or 0 if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Gate results of every op run so far, across phases of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds = Counter()

    def run(self, ops_at, seconds, min_ops=0, tracer=None, op_ids=None):
        """Run ops_at(0), ops_at(1), ... until seconds pass and min_ops are done.

        Returns the wall time of each op.  A wrong result or an unexpected
        exception counts as a failure and the loop goes on.
        """
        times = []
        deadline = perf_counter() + seconds
        i = 0
        while perf_counter() < deadline or i < min_ops:
            op = ops_at(i)
            op_id = None if op_ids is None else op_ids(i)
            root = tracer.open("op", op_id) if tracer is not None else None
            t0 = perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # the gate counts it; the run goes on
                result, error = None, exc
            dt = perf_counter() - t0
            if root is not None:
                tracer.close(root)
            times.append(dt)
            self.kinds[op.kind] += 1
            self.attempted += 1
            if error is None:
                try:
                    ok = bool(op.check(result, op.expect))
                except Exception as exc:
                    ok, error = False, exc
            else:
                ok = False
            if not ok:
                self.failed += 1
                if self.failed <= 5:
                    why = f"{type(error).__name__}: {error}" if error else "wrong result"
                    print(f"gate: op {i} ({op.kind}) failed: {why}", file=sys.stderr)
            i += 1
        return times


# ---------------------------------------------------------------------------
# child processes: set-up and import probes
# ---------------------------------------------------------------------------


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_probe(workload: str, seed: int):
    """Set-up time of a fresh interpreter, and its input fingerprint.

    The clock runs from spawning the child to its `ready` line, which it
    prints after importing isolab, building the seeded inputs and running one
    warm-up op of each kind.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    try:
        ready = json.loads(proc.stdout.readline() or "{}")
        elapsed = perf_counter() - t0
        rest = json.loads(proc.stdout.readline() or "{}")
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not ready.get("ready"):
        raise RuntimeError(f"set-up probe for {workload} exited with {code}")
    return elapsed, bool(ready.get("ok")), rest.get("fingerprint")


def import_probe(module: str) -> float:
    """Seconds a fresh interpreter spends in `import <module>`."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip())


def run_setup_probe(args) -> int:
    workload = build_workload(args.workload, args.seed)
    loop = Loop()
    for op in workload.warmups():
        loop.run(lambda _, op=op: op, 0.0, min_ops=1)
    print(json.dumps({"ready": True, "ok": loop.failed == 0}), flush=True)
    print(json.dumps({"fingerprint": workload.fingerprint()}), flush=True)
    return 0


def build_workload(name: str, seed: int):
    import workloads

    cls = workloads.WORKLOADS[name]
    if name == "cli":
        return cls(seed, ROOT, WORK)
    return cls(seed)


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def environment(seed, kinds, reuse_share) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "seed": seed,
        "ops_per_kind": dict(sorted(kinds.items())),
        "kernel_reuse_share": reuse_share,
    }


def kernel_reuse_share(workload, kinds_in_order) -> float:
    """Share of recover ops whose kernel transform an earlier op already needed."""
    if not hasattr(workload, "transform_key") or not kinds_in_order:
        return 0.0
    seen, repeats = set(), 0
    for kind in kinds_in_order:
        key = workload.transform_key(kind)
        repeats += key in seen
        seen.add(key)
    return repeats / len(kinds_in_order)


def end_to_end(args, workload, loop):
    setups, fingerprints = [], set()
    for _ in range(SETUP_REPEATS):
        elapsed, ok, fingerprint = setup_probe(args.workload, args.seed)
        setups.append(elapsed)
        fingerprints.add(fingerprint)
        if not ok:
            loop.attempted += 1
            loop.failed += 1
    inputs_agree = fingerprints == {workload.fingerprint()}

    warm = workload.warmups()
    loop.run(lambda i: warm[i], 0.0, min_ops=len(warm))
    child_rss = getattr(workload, "child_rss_kb", None)
    if child_rss is not None:
        child_rss.clear()
    # the cli loop always completes one full cycle so every argv is checked
    min_ops = len(workload.cycle) if args.workload == "cli" else 0
    times = loop.run(workload.make, args.seconds, min_ops=min_ops)

    if child_rss is not None:
        peak_kb = max(child_rss)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail, beyond, supported = p90(times)
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s", SETUP_REPEATS, ""),
        "ops_per_s": (n / sum(times), "ops/s", n, ""),
        "op_p50_ms": (cycle_median(times, len(workload.cycle)) * 1e3, "ms", n,
                      f"mean of the medians of {max(1, n // len(workload.cycle))} cycles"),
        "op_p90_ms": (tail * 1e3, "ms", n,
                      f"beyond={beyond}" + ("" if supported else " UNSUPPORTED: fewer than 10 beyond")),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1, ""),
        "ok_ratio": (1.0 - loop.failed / loop.attempted, "ratio", loop.attempted,
                     f"error_rate={loop.failed / loop.attempted:g}"),
    }
    kinds_in_order = [op.kind for op in warm] + [workload.kind(i) for i in range(n)]
    return metrics, inputs_agree, kinds_in_order, times


def per_layer(args, workload, loop):
    import tracer as tracing

    imports = [import_probe("isolab") for _ in range(IMPORT_REPEATS)]
    floors = [import_probe("numpy") for _ in range(IMPORT_REPEATS)]
    tracer = tracing.Tracer()
    half = args.seconds / 2.0

    if args.workload == "cli":
        ops = workload.in_process_ops()
        warm = ops
        ops_at = lambda i: ops[i % len(ops)]  # noqa: E731
        min_ops = len(ops)
        untraced_at, traced_at = ops_at, ops_at
    else:
        warm = workload.warmups()
        min_ops = 0
        untraced_at = workload.make
        traced_at = None  # set below, after the untraced phase picks its indices

    tracing.install(tracer)
    try:
        warm_times = loop.run(lambda i: warm[i], 0.0, min_ops=len(warm), tracer=tracer,
                              op_ids=lambda i: f"warm{i}")
    finally:
        tracer.restore()
    untraced = loop.run(untraced_at, half, min_ops=min_ops)
    if traced_at is None:
        offset = len(untraced)
        traced_at = lambda i: workload.make(offset + i)  # noqa: E731
    tracing.install(tracer)
    try:
        traced = loop.run(traced_at, half, min_ops=min_ops, tracer=tracer, op_ids=lambda i: i)
    finally:
        tracer.restore()

    metrics = tracing.layer_metrics(
        tracer, set(range(len(traced))), {f"warm{i}" for i in range(len(warm))}
    )
    in_process = args.workload == "cli"
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    metrics["cli.interp_floor_ms"] = (statistics.median(floors) * 1e3, "ms")
    metrics["cli.main_warm_ms"] = (statistics.mean(untraced) * 1e3 if in_process else 0.0, "ms")
    metrics["cli.main_first_ms"] = (statistics.mean(warm_times) * 1e3 if in_process else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (
        (len(traced) / sum(traced)) / (len(untraced) / sum(untraced)), "ratio"
    )
    counts = {"cli.import_ms": IMPORT_REPEATS, "cli.interp_floor_ms": IMPORT_REPEATS,
              "cli.main_warm_ms": len(untraced)}

    WORK.mkdir(exist_ok=True)
    tracer.write(
        WORK / f"trace-{args.workload}-seed{args.seed}.jsonl",
        {"workload": args.workload, "seed": args.seed, "timed_ops": len(traced)},
    )
    kinds_in_order = [op.kind for op in warm] + [
        workload.kind(i) for i in range(len(untraced) + len(traced))
    ]
    metrics = {k: (v, u, counts.get(k, len(traced)), "") for k, (v, u) in metrics.items()}
    return metrics, True, kinds_in_order, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("recover", "disc", "grid", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "isolab" / "__init__.py").is_file():
        print(f"perfbench: no isolab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import isolab

    if Path(isolab.__file__).resolve().parent != SRC / "isolab":
        print(f"perfbench: isolab imported from {isolab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return run_setup_probe(args)

    WORK.mkdir(exist_ok=True)
    workload = build_workload(args.workload, args.seed)
    loop = Loop()
    measure = per_layer if args.trace else end_to_end
    steal0, wall0 = cpu_steal(), perf_counter()
    metrics, inputs_agree, kinds_in_order, times = measure(args, workload, loop)
    ticks = (perf_counter() - wall0) * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
    steal = (cpu_steal() - steal0) / ticks
    if not inputs_agree:
        print("perfbench: set-up probes generated different inputs from this seed",
              file=sys.stderr)

    reuse = kernel_reuse_share(workload, kinds_in_order)
    if args.trace:
        metrics["recovery.kernel_reuse_share"] = (reuse, "ratio", len(kinds_in_order), "")
    env = environment(args.seed, loop.kinds, reuse)
    env["cpu_steal_share"] = steal
    result = {
        "correct": loop.failed == 0 and inputs_agree,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()},
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **result, "op_seconds": times}, sort_keys=True)
    )
    for name, (value, unit, count, note) in metrics.items():
        print(f"{args.workload:8s} {name:36s} {value:14.6f} {unit:6s} n={count} {note}".rstrip())
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
