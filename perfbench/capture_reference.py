"""Capture reference.json: outputs of every workload's pass on the
reference seed, sampled as checks.snapshot() describes.

Run from the checkout root, only when the program's outputs are meant
to change:

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    import qcsim.cli as cli

    work = Path(".perfbench_work") / "reference"
    shutil.rmtree(work, ignore_errors=True)
    doc = {"seed": workloads.REFERENCE_SEED, "rel_tolerance": checks.REFERENCE_REL, "workloads": {}}
    for name in workloads.WORKLOADS:
        calls = workloads.build_plan(name, workloads.REFERENCE_SEED, work / name)
        entries = {}
        for call in calls:
            with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
                rc = cli.main(list(call.argv))
            if rc != 0:
                print(f"error: {' '.join(call.argv)} exited {rc}", file=sys.stderr)
                return 1
            entries[checks.reference_key(call)] = checks.snapshot(call)
        doc["workloads"][name] = entries
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
