"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep-catalog --seeds 1-10 [--out FILE]

For each end-to-end metric it prints the median of the runs and the spread:
the distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to a third of the metric's bound.  Runs
are sequential, one seed each, with BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {}
    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(workload, seed, result["correct"], json.dumps(runs[-1]), flush=True)
        rows = {}
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            rows[metric["name"]] = {"median": statistics.median(values),
                                    "spread": spread(values), "values": values}
            print(f"  {metric['name']:<14} median {statistics.median(values):.6g} "
                  f"spread {spread(values):.4f} (bound/3 {metric['bound'] / 3:.4f})")
        summary[workload] = {"seeds": args.seeds, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
