"""Measurement of one run: the timed loop, the traced jobs, and the gate.

worker.py imports this module only after it has a clean interpreter, so that
none of it counts towards set-up time.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from pathlib import Path

import mpmath

import gate
import refclock
import workloads
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _check_source() -> None:
    import supercong

    if SRC not in Path(supercong.__file__).resolve().parents:
        raise SystemExit(f"supercong was imported from {supercong.__file__}, not {SRC}")


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Runs:
    """What the run keeps of its untraced jobs: times, counts, first rows."""

    def __init__(self, workload: str, inputs: dict) -> None:
        self.workload, self.inputs = workload, inputs
        self.walls: list[float] = []  # reference seconds per job
        self.raw_walls: list[float] = []
        self.items: list[list[float]] = []  # reference seconds per work item, per job
        self.first = None
        self.lines: list[str] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def untraced(self) -> None:
        t0 = time.perf_counter()
        job = workloads.JOBS[self.workload](self.inputs, self.workload)
        meter = job.meter
        raw = time.perf_counter() - t0 - sum(meter.refs)
        items = meter.scaled_items()
        # the time outside items (sorting, rendering) is scaled by the last ref
        rest = (raw - sum(meter.items)) * refclock.scale(meter.refs[-1:])
        self.raw_walls.append(raw)
        self.walls.append(sum(items) + rest)
        self.items.append(items)
        self.attempted += len(job.rows)
        self.failed += len(gate.failed_rows(job.rows)) + len(meter.errors)
        self.problems += [f"exception: {e}" for e in meter.errors]
        lines = [gate.verdict_line(r) for r in job.rows]
        if self.first is None:
            self.first, self.lines = job, lines
        elif lines != self.lines:
            self.problems.append("repetitions of the job gave different rows")

    def check_traced(self, rows) -> None:
        self.attempted += len(rows)
        self.failed += len(gate.failed_rows(rows))
        if [gate.verdict_line(r) for r in rows] != self.lines:
            self.problems.append("traced rows differ from the untraced rows")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _check_source()
    expected = gate.load_expected()
    inputs = workloads.make_inputs(workload, seed)
    runs = Runs(workload, inputs)
    tracers: list[Tracer] = []
    traced_walls: list[float] = []
    until = time.perf_counter() + seconds
    # a traced run alternates untraced and traced jobs, so that drift in the
    # host's speed reaches both alike and their difference is the overhead
    while not runs.walls or time.perf_counter() < until:
        runs.untraced()
        if trace:
            tr = Tracer(len(tracers))
            tracers.append(tr)
            t0 = time.perf_counter()
            rows = workloads.TRACED[workload](inputs, workload, tr)
            traced_walls.append(time.perf_counter() - t0)
            runs.check_traced(rows)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = runs.first
    problems = runs.problems + gate.check_rows(workload, inputs, first.rows, expected)
    out: dict = {"inputs": _describe(inputs), "reps": len(runs.walls), "platform": _platform(),
                 "raw_wall_s": statistics.median(runs.raw_walls)}

    if trace:
        out["layers"] = _layer_metrics(tracers, traced_walls, runs.raw_walls)
        if out["layers"]["trace.self_sum_s"] < 0.99 * out["layers"]["trace.wall_s"]:
            problems.append("span self times do not account for the traced wall time")
        kernels = workloads.KERNELS.get(workload)
        out["layers"].update(kernels() if kernels else {})
        out["spans"] = [s for tr in tracers for s in tr.spans]
    else:
        # every job runs the same items, so each item's time is its median over jobs
        items = [statistics.median(times) for times in zip(*runs.items)]
        out["metrics"] = {
            "wall_s": statistics.median(runs.walls),
            "item_p50_ms": 1000 * statistics.median(items),
            "item_p90_ms": 1000 * _percentile(items, 90),
            "peak_rss_mb": peak_rss_mb,
        }
        out["samples"] = {"wall_s": len(runs.walls), "item_p50_ms": len(items),
                          "item_p90_ms": len(items), "peak_rss_mb": 1}
        out["report_bytes"] = first.report_bytes

    if workload == "cm-numeric":
        out["min_digits"], digit_problems = gate.check_min_digits(first.residuals, expected)
        problems += digit_problems
    rng = random.Random(seed)
    if workload == "sweep-catalog":
        oracle_rows = first.rows
    elif workload == "sweep-deep":
        oracle_rows = gate.small_prime_rows(workloads.DEEP_SPECS)
    else:
        oracle_rows = []
    out["oracle_checked"], oracle_problems = gate.oracle_spot_check(oracle_rows, rng)
    problems += oracle_problems
    out["controls"] = gate.negative_controls(workload, inputs, first.rows, expected, rng)
    problems += [f"negative control not rejected: {k}" for k, v in out["controls"].items()
                 if not v]
    out.update(problems=problems, attempted=runs.attempted, failed=runs.failed)
    return out


def _platform() -> dict:
    # the python backend makes highprec many times slower than gmpy
    return {"mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}


def _describe(inputs: dict) -> dict:
    """Inputs as JSON: sweep units become (row ids or row count, prime)."""
    desc = {k: v for k, v in inputs.items() if k != "units"}
    if "units" in inputs:
        desc["units"] = [[ids[0] if len(ids) == 1 else len(ids), p]
                         for ids, p in inputs["units"]]
    return desc


def _span_metric(name: str) -> str:
    if name.startswith("sequences.terms_mod."):
        return "sequences.terms_mod_s." + name.rsplit(".", 1)[1]
    return {"congruence.prime": "congruence.other_s", "job": "job.self_s"}.get(
        name, name + "_s")


def _layer_metrics(tracers, traced_walls: list[float], walls: list[float]) -> dict:
    """Median over traced jobs of each layer's self time; counts of one job.

    Layer times are raw seconds: they have no bound, and the traced and
    untraced jobs alternate, so drift in host speed reaches both alike.
    """
    per_job = [{_span_metric(k): v for k, v in tr.self_times().items()} for tr in tracers]
    names = sorted({k for m in per_job for k in m})
    out = {k: statistics.median(m.get(k, 0.0) for m in per_job) for k in names}
    counts = dict(tracers[-1].counts)
    lhs, terms = counts.get("congruence.lhs_sum_calls", 0), counts.get(
        "congruence.terms_mod_calls", 0)
    counts["congruence.term_reuse"] = lhs / terms if terms else 0.0
    out.update(counts)
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.untraced_wall_s"] = statistics.median(walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.self_sum_s"] = statistics.median(sum(m.values()) for m in per_job)
    return out
