"""Regenerate golden.json: the sha256 of every --deterministic CLI report
the full workloads produce at the default seed, with the platform they
were produced on.

    python3 perfbench/freeze.py

Run it only when a change is meant to alter report bytes, and say so in
that change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from worker import blas_info, platform_key  # noqa: E402


def main() -> int:
    digests = {}
    for name, build in workloads.WORKLOADS.items():
        for op in build(workloads.DEFAULT_SEED, "full"):
            # CLI operations are labelled by their argv, which ends in the flag
            if op.label.endswith("--deterministic") and op.label not in digests:
                code, text = op.run()
                if code not in (0, 1):
                    sys.exit(f"{op.label}: exit {code}")
                digests[op.label] = workloads.digest(text)
        print(f"{name}: {len(digests)} digests so far", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump({"platform": platform_key(blas_info()), "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
