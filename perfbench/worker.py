"""One measured process of the benchmark; run.py starts it and reads its output.

    worker.py setup
        Time a fresh import of supercong and the catalog build; print seconds.
    worker.py run WORKLOAD SEED SECONDS TRACE
        Repeat the workload's job for SECONDS, gate its outputs, and print one
        JSON object with the measurements.  With TRACE=1 untraced and traced
        jobs alternate, and the layer kernels run after.

Run from the root of the repository with PYTHONPATH=src.
"""

from __future__ import annotations

import json
import sys
import time


def setup_seconds() -> dict:
    """Raw and reference seconds of a fresh import plus the catalog build."""
    t0 = time.perf_counter()
    import supercong.cli  # noqa: F401  (pulls in every layer, mpmath included)
    from supercong.congruence import catalog

    catalog()
    raw = time.perf_counter() - t0
    import refclock

    refs = [refclock.reference("small") for _ in range(5)]
    return {"setup_s": raw * refclock.scale(refs),
            "setup_raw_s": raw}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps(setup_seconds()))
        return 0
    if len(argv) != 5 or argv[0] != "run":
        print(__doc__, file=sys.stderr)
        return 2
    import measure

    workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    print(json.dumps(measure.run(workload, seed, seconds, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
