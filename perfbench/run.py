"""Benchmark of the uniformity toolkit: three workloads driven through the CLI in-process.

    python3 perfbench/run.py --workload scan|spectral|exact|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it repeats full passes of the workload for ``--seconds``
seconds and reports medians of times scaled to the reference host's speed
(see the probes); with ``--trace 1`` it alternates untraced and traced passes
and reports per-layer metrics.  Every line but the last is a
report with each metric's unit and sample count, the failures and the run's
metadata; the last line is the result: ``correct``, ``attempted``, ``failed``
and the metrics listed in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from spans import LAYERS, UNITS, Recorder, dump, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7

# The host's speed changes by up to 1.8x for tens of seconds at a time (other
# tenants of the machine), so raw medians from runs a minute apart can differ
# by 40% however many repeats a run makes.  Before every operation, and after
# the last one, the benchmark times a small fixed probe that shares no code
# with the package.  Each reported time is the measured time scaled by the
# host's speed during its pass, (probe's reference time) / (median probe
# time), so it reads as seconds on the idle reference host.  Interpreted code
# and memory-bound numpy code do not slow together, so each workload's probe
# is of the same kind as its work.  Raw medians are reported beside the
# scaled ones.


def probe_interpreter() -> float:
    """Interpreted integer arithmetic and small numpy FFTs, like the norm and exact-arithmetic workloads."""
    signal = numpy.arange(4096) % 7 / 7.0
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    for _ in range(20):
        numpy.fft.fft(signal)
    return time.perf_counter() - t0


def gather_probe():
    """Table gathers combined with AND over half a million points, like the grid scan.

    The buffers are allocated once, so the probe does not change the heap the
    workload's peak memory depends on."""
    rng = numpy.random.default_rng(0)
    table = numpy.concatenate([rng.random(4001) < 0.5] * 2)
    index = [rng.integers(0, table.size, 1 << 19).astype(numpy.int32) for _ in range(4)]
    acc = numpy.empty(1 << 19, dtype=bool)
    part = numpy.empty_like(acc)

    def probe() -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            numpy.take(table, index[0], out=acc)
            for ix in index[1:]:
                numpy.take(table, ix, out=part)
                numpy.logical_and(acc, part, out=acc)
            numpy.count_nonzero(acc)
        return time.perf_counter() - t0

    return probe


# The probes' times on the idle reference host (2-core Xeon VM, Python 3.11, numpy 2.4), in seconds.
INTERPRETER_REF = 0.0085
GATHER_REF = 0.0125


def setup_time() -> tuple[float, float]:
    """Raw and scaled wall time of a fresh interpreter importing the CLI, which every CLI call pays."""
    before = probe_interpreter()
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import uniformity.cli"], env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True
    )
    raw = time.perf_counter() - t0
    return raw, raw * INTERPRETER_REF * 2 / (before + probe_interpreter())


def metadata(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "commit": commit,
    }


class Tally:
    """Operations attempted and failed; a failure is an exception, a non-zero exit or a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}

    def check(self, outcomes) -> None:
        for op, out, error in outcomes:
            self.attempted += 1
            reason = error or op.check(out)
            if reason:
                self.failed += 1
                self.failures[op.label] = reason


def run_pass(tasks, probe, probe_ref: float):
    """One full pass: raw seconds per task and for the pass ("wall"), (op, output, error) per operation,
    and the host's speed during the pass."""
    times = {}
    outcomes = []
    probes = []
    for task in tasks:
        spent = 0.0
        for op in task.ops:
            probes.append(probe())
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except (Exception, SystemExit) as e:  # argparse exits on bad arguments
                out, error = None, f"raised {type(e).__name__}: {e}"
            spent += time.perf_counter() - t0
            outcomes.append((op, out, error))
        times[task.name] = spent
    probes.append(probe())
    times["wall"] = sum(times.values())
    return times, outcomes, probe_ref / statistics.median(probes)


def median_metric(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples)}


def measure(tasks, probe, probe_ref: float, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced passes until the next one would overrun ``seconds``: medians of scaled times, and of raw ones.

    One set-up sample is taken after each pass, so that a burst of load on the
    host hits few of them; the samples are topped up to SETUP_SAMPLES at the end.
    """
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    speeds = []

    def add(name, raw_s, scaled_s):
        raw.setdefault(name, []).append(raw_s)
        scaled.setdefault(name, []).append(scaled_s)

    start = time.perf_counter()
    while True:
        times, outcomes, speed = run_pass(tasks, probe, probe_ref)
        tally.check(outcomes)
        speeds.append(speed)
        for name, v in times.items():
            add(f"{name}_s", v, v * speed)
        add("setup_s", *setup_time())
        if time.perf_counter() - start + times["wall"] > seconds:
            break
    while len(raw["setup_s"]) < SETUP_SAMPLES:
        add("setup_s", *setup_time())
    metrics = {name: median_metric(vs, "s") for name, vs in scaled.items()}
    summary = {"host_speed": statistics.median(speeds), "raw_medians_s": {n: statistics.median(vs) for n, vs in raw.items()}}
    return metrics, summary


def measure_traced(tasks, probe, probe_ref: float, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics are medians over the traced ones."""
    untraced, traced, layers, dumped = [], [], [], []
    start = time.perf_counter()
    while True:
        times, outcomes, speed = run_pass(tasks, probe, probe_ref)
        tally.check(outcomes)
        untraced.append(times["wall"] * speed)
        with Recorder() as rec:
            times_t, outcomes, speed_t = run_pass(tasks, probe, probe_ref)
        tally.check(outcomes)
        traced.append(times_t["wall"] * speed_t)
        m = layer_metrics(rec.spans)
        for name, unit in UNITS.items():
            m[name] *= {"s": speed_t, "1/s": 1 / speed_t}.get(unit, 1)
        layers.append(m)
        dumped.append(dump(rec.spans))
        if time.perf_counter() - start + times["wall"] + times_t["wall"] > seconds:
            break
    spans_path.write_text(json.dumps(dumped))
    metrics = {name: median_metric([m[name] for m in layers], unit) for name, unit in UNITS.items()}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": len(traced)}
    wall_t = statistics.median(traced)
    self_total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    summary = {
        "traced_wall_s": wall_t,
        "untraced_wall_s": statistics.median(untraced),
        # Time inside an operation but outside every span is the CLI's output capture.
        "self_time_coverage": self_total / wall_t,
        "layer_shares": {layer: metrics[f"{layer}.self_s"]["value"] / wall_t for layer in LAYERS},
    }
    return metrics, summary


def run_workload(name: str, args) -> tuple[dict, Tally]:
    import tasks as workloads

    tally = Tally()
    tasks = workloads.WORKLOADS[name](args.seed)
    probe, probe_ref = (gather_probe(), GATHER_REF) if name == "scan" else (probe_interpreter, INTERPRETER_REF)
    report = {"workload": name}
    if args.trace:
        spans_path = OUT / f"spans-{name}-seed{args.seed}.json"
        report["metrics"], report["trace"] = measure_traced(tasks, probe, probe_ref, args.seconds, tally, spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, report["timing"] = measure(tasks, probe, probe_ref, args.seconds, tally)
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
            "samples": 1,
        }
        metrics["fail_ratio"] = {
            "value": tally.failed / max(tally.attempted, 1),
            "unit": "ratio",
            "failed": tally.failed,
            "attempted": tally.attempted,
        }
        report["metrics"] = metrics
    report["failures"] = tally.failures
    return report, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scan", "spectral", "exact", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all" and args.trace:
        ap.error("the traced run takes one workload")

    if not (SRC / "uniformity" / "cli.py").is_file():
        print(f"error: no package sources at {SRC / 'uniformity'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = ("scan", "spectral", "exact") if args.workload == "all" else (args.workload,)
    meta = metadata(args.seed)
    reports, tallies = [], []
    for name in names:
        report, tally = run_workload(name, args)
        report["metadata"] = meta
        reports.append(report)
        tallies.append(tally)
        print(json.dumps(report, sort_keys=True), flush=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(reports, indent=1, sort_keys=True)
    )

    def value(metric: str) -> float:
        vals = [r["metrics"][metric]["value"] for r in reports]
        # For "all" the passes of the three workloads add up; of the other metrics the largest is kept.
        return sum(vals) if metric == "wall_s" else max(vals)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
