"""Golden SHA-256 of every file `lwacomm beampattern --seed s` writes.

For seeds 0-4 of the default scenario (0.25 deg x 0.25 m map, 360 x 81
points) the command writes beampattern.csv, users.csv, allocation.txt and
trace.csv; each file's SHA-256 must equal the one in
golden_beampattern.json, so any change of a written byte fails.

Record the file again (only when a change of outputs is intended) with

    PYTHONPATH=src python tests/test_golden_beampattern.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from lwacomm.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_beampattern.json")
SEEDS = range(5)


def digests(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["beampattern", "--seed", str(seed), "--out", tmp, "--quiet"]) == 0
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(tmp).iterdir())
        }


def test_beampattern_outputs_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert {str(s): digests(s) for s in SEEDS} == golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({str(s): digests(s) for s in SEEDS}, indent=1) + "\n"
    )
