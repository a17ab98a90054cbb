"""Record the reference verdicts the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/record.py

Run once, from the root of the repository, on the commit whose outputs are
the reference; it rewrites perfbench/expected.json.  Sweep verdicts come from
the `supercong` command line itself (CSV reports); the min_digits floor is
the lowest agreement seen over cm-numeric seeds 1..10, less two digits.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import gate
import workloads


def cli_csv(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "supercong.cli", "verify", *args, "--format", "csv"],
        capture_output=True, text=True, check=True, env=dict(os.environ),
    )
    return proc.stdout


def main() -> int:
    expected: dict = {}

    lo, hi = workloads.CATALOG_MIN_P, workloads.CATALOG_MAX_P
    text = cli_csv("congruences", "--include-conjectural", "--min-p", str(lo), "--max-p", str(hi))
    inputs = workloads.make_inputs("sweep-catalog", 0)
    rows = workloads.sweep_job(inputs, "sweep-catalog").rows
    digest = hashlib.sha256(text.encode()).hexdigest()
    if gate.csv_digest(rows) != digest:
        raise SystemExit("the gate's CSV digest does not reproduce the command line's")
    expected["sweep-catalog"] = {"min_p": lo, "max_p": hi, "rows": len(rows),
                                 "csv_sha256": digest}

    deep = {}
    for sid in workloads.DEEP_SPECS:
        for p in workloads.deep_candidates(sid):
            line = cli_csv("congruences", "--theorem", sid, "--min-p", str(p),
                           "--max-p", str(p)).splitlines()[1]
            deep[f"{sid}@{p}"] = line
    expected["sweep-deep"] = {"window": list(workloads.DEEP_WINDOW), "rows": deep}

    qrows = cli_csv("qseries", "--terms", str(workloads.QSERIES_TERMS)).splitlines()[1:]
    expected["qseries-exact"] = {"checks": sorted(line.split(",")[0] for line in qrows)}

    jobs = [workloads.cm_job(workloads.make_inputs("cm-numeric", seed), "cm-numeric")
            for seed in range(1, 11)]
    digits = [gate.min_digits(job.residuals) for job in jobs]
    job = jobs[0]
    expected["cm-numeric"] = {
        "checks": sorted(r.spec_id for r in job.rows),
        "min_digits_seen": min(digits),
        "min_digits_floor": math.floor(min(digits)) - 2,
    }
    gate.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
