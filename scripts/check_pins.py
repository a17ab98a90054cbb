"""Check the outputs pinned by digest.

Usage: python scripts/check_pins.py [PINS]

PINS (default: pins.txt beside this script) holds one pin a line: an output
file name, its SHA-256 digest and the arguments of `python -m supercong.cli`;
blank lines and lines that start with # are skipped.  Each command runs on
the repository's src/ with standard input closed, and its standard output is
hashed in memory, so nothing is written into the checkout.  Prints the file
name and the digest of every output, and exits 1 when a digest differs from
its pin or a command exits non-zero.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    pins = Path(argv[0]) if argv else Path(__file__).with_name("pins.txt")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    bad = 0
    for line in pins.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, digest, *args = line.split()
        run = subprocess.run([sys.executable, "-m", "supercong.cli", *args], env=env,
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        actual = hashlib.sha256(run.stdout).hexdigest()
        note = ""
        if run.returncode:
            note += f" exit code {run.returncode}"
        if actual != digest:
            note += f" differs from the pin {digest}"
        print(f"{name} {actual}{note}", flush=True)
        bad += bool(note)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
