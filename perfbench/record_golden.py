"""Record golden.json: each workload's op on its golden input, from the current source.

    python3 perfbench/record_golden.py

Re-record only when a change is meant to alter results, and say so.
"""

import json
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    golden = {}
    for workload in WORKLOADS.values():
        if hasattr(workload, "prepare"):
            workload.prepare()
        op = run.execute(workload, workload.golden_input, run.SCRATCH / workload.name)
        if op.problems:
            print(f"{workload.name}: {op.problems}", file=sys.stderr)
            return 1
        golden[workload.name] = op.summary
    shutil.rmtree(run.SCRATCH, ignore_errors=True)
    path = Path(__file__).parent / "golden.json"
    path.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
