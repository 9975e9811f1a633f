"""graphfun benchmark: closed loop, one client, in-process CLI calls.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py``) is a list of ``graphfun`` CLI
invocations on inputs generated from ``--seed``.  The loop calls
``graphfun.cli.main(argv)`` in this process, one call at a time, in whole
passes over the workload's pool for up to ``--seconds`` seconds, and checks
every report against the values recorded in ``expected.json``.  Calls are
in-process because interpreter start-up would otherwise dominate instances
that take a few milliseconds.

The host's speed drifts by up to a factor of two within seconds, so the
end-to-end times are normalised: after every call the loop times a fixed
pure-Python calibration kernel, and each call's time is scaled by
``CALIBRATION_REF_S`` over the mean kernel time of the calibrations around
it.  The times reported are those of a host on which the kernel takes
``CALIBRATION_REF_S``; the raw figures are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
cycles of instances repeatedly, alternating an untraced pass and a pass with
spans recorded at the module boundaries listed in ``tracer.py``, and reports
the per-layer metrics; the spans of the first traced pass are written to
``.perfbench-out/``.  ``--smoke`` restricts a workload to its smallest
classes and runs each instance once.

Human-readable lines go to standard output first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

TRACE_CYCLES = 4   # cycles of the run's instances that the traced passes repeat
TAIL_SAMPLES = 10  # samples required beyond the reported high percentile
# Time of one calibration kernel run on the reference host; normalised
# times are raw times scaled by this over the kernel's measured time.
CALIBRATION_REF_S = 0.00125
CALIBRATION_WINDOW = 3  # calibrations on each side of a call that scale it
SETUP_CALIBRATIONS = 8  # kernel runs on each side of set-up that scale it


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    return ap.parse_args(argv)


def _setup(workload, seed: int, smoke: bool, workdir: Path):
    import workloads
    from graphfun import cli

    workdir.mkdir(parents=True, exist_ok=True)
    expected = workloads.load_expected(str(EXPECTED))
    cycles = workloads.build_cycles(workload, seed, str(workdir), expected, smoke)
    return cli, cycles


def _run_one(main, inst):
    """(exit code or None, result dict or None, seconds, error text)."""
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(inst.argv)
        except Exception as exc:  # a crash is a failed instance, not a crashed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    result = None
    if code is not None and out.getvalue().strip():
        try:
            result = json.loads(out.getvalue())["result"]
        except (ValueError, KeyError) as exc:
            error = f"unreadable report: {exc}"
    return code, result, elapsed, error


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, inst, code, result, error) -> bool:
        import workloads

        self.attempted += 1
        try:
            problems = [error] if error else workloads.check(inst, code, result)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"report lacks an expected field: {exc!r}"]
        if problems:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{inst.key}: {'; '.join(problems)}")
        return not problems


def _timed_pass(main, instances, tally: Tally):
    """Run every instance once: (latencies, instances passed, wall time)."""
    latencies = []
    passed = 0
    start = time.perf_counter()
    for inst in instances:
        code, result, elapsed, error = _run_one(main, inst)
        latencies.append(elapsed)
        passed += tally.record(inst, code, result, error)
    return latencies, passed, time.perf_counter() - start


def _calibration_kernel() -> int:
    # Integer arithmetic only: it allocates no container, so neither the
    # program's heap nor the garbage collector changes its time.
    acc = 0
    for i in range(5000):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc += (x ^ (x >> 7)).bit_count()
    return acc


def _calibrate(runs: int = 1) -> float:
    """Mean seconds of one calibration kernel run, over ``runs`` runs."""
    start = time.perf_counter()
    for _ in range(runs):
        _calibration_kernel()
    return (time.perf_counter() - start) / runs


def _scales(calibration):
    """Scale of each call, where ``calibration[i]`` was taken just before
    call i and ``calibration[i + 1]`` just after it: the reference time over
    the mean of the calibrations within the window around the call."""
    w = CALIBRATION_WINDOW
    return [CALIBRATION_REF_S / statistics.fmean(calibration[max(0, i + 1 - w):i + 1 + w])
            for i in range(len(calibration) - 1)]


def _percentile_90(samples):
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def _end_to_end(main, cycles, seconds, smoke, setup_s, setup_calibration):
    instances = [inst for cycle in cycles for inst in cycle]
    tally = Tally()
    raw, passed, passes = [], 0, 0
    calibration = [_calibrate(SETUP_CALIBRATIONS)]
    setup_scale = 2 * CALIBRATION_REF_S / (setup_calibration + calibration[0])
    start = time.perf_counter()
    # A pass starts only if it is expected to end within --seconds, so every
    # run times whole passes over the same instances, whatever the seed.
    while passes == 0 or (
            not smoke and (time.perf_counter() - start) * (passes + 1) / passes <= seconds):
        for inst in instances:
            code, result, elapsed, error = _run_one(main, inst)
            calibration.append(_calibrate())
            raw.append(elapsed)
            passed += tally.record(inst, code, result, error)
        passes += 1
    latencies = [x * scale for x, scale in zip(raw, _scales(calibration))]
    p90 = _percentile_90(latencies)
    beyond = sum(1 for x in latencies if x > p90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s * setup_scale, "s"),
        "instances_per_s": (passed / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"  {len(latencies)} calls in {passes} pass(es), {sum(raw):.3f} s in calls, "
          f"{beyond} beyond p90"
          + ("" if beyond >= TAIL_SAMPLES or smoke else f" (fewer than {TAIL_SAMPLES})"))
    print(f"  raw: setup {setup_s:.4f} s, {passed / sum(raw):.4g} instances/s, p50 "
          f"{statistics.median(raw) * 1e3:.4g} ms; calibration "
          f"kernel {statistics.median(calibration) * 1e3:.3f} ms median "
          f"({min(calibration) * 1e3:.3f}-{max(calibration) * 1e3:.3f}) "
          f"over {len(calibration)} samples, reference {CALIBRATION_REF_S * 1e3:g} ms")
    print(f"  failed_ratio      {tally.failed / tally.attempted:.4f}"
          f"  ({tally.failed} of {tally.attempted} attempted)")
    return tally, metrics


def _layer_metric(name: str, totals: dict, missing: set):
    """Value of a per-layer metric such as ``graph.induced_subgraph.calls``."""
    span, _, field = name.rpartition(".")
    if span == "cli":
        span = "cli.main"
    if span in missing:
        return None
    calls, total, self_s = totals[span]
    return {"calls": calls, "s": total, "self_s": self_s}[field]


def _per_layer(main, cycles, seconds, smoke, workload, seed, layer_names):
    import tracer as tracing

    trace_set = [inst for cycle in cycles[:TRACE_CYCLES] for inst in cycle]
    keys = [inst.key for inst in trace_set]
    tracer = tracing.Tracer()
    tally = Tally()
    passes = []  # (untraced wall, traced wall, totals)
    deadline = time.perf_counter() + seconds
    # A pair of passes starts only if one more is expected to end in time.
    while not passes or (not smoke and time.perf_counter() + sum(passes[-1][:2]) < deadline):
        _, _, plain_wall = _timed_pass(main, trace_set, tally)
        tracer.reset_totals()
        tracer.keep_spans = not passes
        tracer.install()
        try:
            start = time.perf_counter()
            for idx, inst in enumerate(trace_set):
                tracer.instance = idx
                code, result, _, error = _run_one(
                    lambda argv: tracer.call(0, main, (argv,), {}), inst)
                tally.record(inst, code, result, error)
            traced_wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        passes.append((plain_wall, traced_wall, tracer.totals()))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{seed}-spans.tsv.gz"
    tracer.write_spans(str(path), keys)
    print(f"  {len(tracer.span_start)} spans of the first traced pass written to "
          f"{path.relative_to(ROOT)}")
    counts = [{k: v[0] for k, v in totals.items()} for _, _, totals in passes]
    deterministic = all(c == counts[0] for c in counts)
    if not deterministic:
        print("  call counts differ between traced passes of the same instances")
    totals = {
        name: (counts[0][name],
               statistics.median(t[name][1] for _, _, t in passes),
               statistics.median(t[name][2] for _, _, t in passes))
        for name in counts[0]
    }
    metrics = {}
    for name, unit in layer_names:
        if name == "trace.overhead_ratio":
            value = statistics.median(t / p for p, t, _ in passes)
        else:
            value = _layer_metric(name, totals, tracer.missing)
        metrics[name] = (value, unit)
    print(f"  {len(passes)} traced passes over {len(trace_set)} instances")
    return tally, metrics, deterministic


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "graphfun" / "__init__.py").is_file():
        print(f"graphfun sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        calibration_start = time.perf_counter()
        setup_calibration = _calibrate(SETUP_CALIBRATIONS)
        calibration_s = time.perf_counter() - calibration_start
        cli, cycles = _setup(workload, args.seed, args.smoke, workdir)
        setup_s = time.perf_counter() - PROCESS_START - calibration_s
        if not cli.__file__.startswith(str(SRC)):
            print(f"imported graphfun from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
            f"trace {args.trace}{', smoke' if args.smoke else ''}: "
            f"{sum(map(len, cycles))} instances in {len(cycles)} cycles")
        print(f"  python {platform.python_version()}, nproc {os.cpu_count()}, one process, "
            "no threads, closed loop with one client")
        deterministic = True
        if args.trace:
            layer_names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            tally, metrics, deterministic = _per_layer(
                cli.main, cycles, args.seconds, args.smoke, workload, args.seed,
                layer_names)
        else:
            tally, metrics = _end_to_end(
                cli.main, cycles, args.seconds, args.smoke, setup_s, setup_calibration)
            names = [m["name"] for m in spec["end_to_end"]]
            metrics = {k: metrics[k] for k in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for example in tally.examples:
        print(f"  FAILED {example}")
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown} {unit}")
    report = {
        "correct": tally.failed == 0 and deterministic,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
