"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it prints every end-to-end
metric of BENCHMARK.json; with --trace 1 every per-layer metric, from a run
that calls each layer step by step inside spans.  The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.  The
line before it holds the run metadata, and both, with the spans of a traced
run, are also written to perfbench/out/.

The measured work runs in a child interpreter (worker.py) so that set-up
time and peak memory belong to the workload alone.  Timed end-to-end metrics
are in reference seconds (see refclock.py); raw seconds are in the metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
SETUP_SAMPLES = 11
RUN_LIMIT_S = 175


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "supercong").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "supercong" / "__init__.py").is_file():
        print(f"error: no supercong package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        setup = []
        if not args.trace:
            setup = [_child(["setup"], deadline) for _ in range(SETUP_SAMPLES)]
        out = _child(["run", args.workload, str(args.seed), str(args.seconds),
                      str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        wanted, measured, samples = spec["per_layer"], out["layers"], {}
    else:
        wanted = spec["end_to_end"]
        measured = dict(out["metrics"], setup_s=statistics.median(s["setup_s"] for s in setup))
        samples = dict(out["samples"], setup_s=len(setup))
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": not out["problems"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "src_sha256": _source_digest(),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), **out["platform"],
        "samples": samples, "setup_raw_s": [s["setup_raw_s"] for s in setup],
        **{k: out[k] for k in ("inputs", "reps", "raw_wall_s", "problems", "oracle_checked",
                               "controls")},
        **{k: out[k] for k in ("min_digits", "report_bytes") if k in out},
    }
    BENCH.joinpath("out").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"meta": meta, "result": result, "spans": out.get("spans", [])}
    (BENCH / "out" / name).write_text(json.dumps(record))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
