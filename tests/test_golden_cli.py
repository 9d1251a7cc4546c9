"""Golden SHA-256 of every file `lwacomm optimize`, `compare-mimo` and
`sweep-snr` write.

For seeds 0-2 of the default scenario, optimize writes allocation.txt and
trace.csv, compare-mimo writes compare.txt, and sweep-snr (2 trials at
-10, 10 and 30 dB) writes sweep.csv; each file's SHA-256 must equal the one
in golden_cli.json, so any change of a written byte fails.

Record the file again (only when a change of outputs is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from lwacomm.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
SEEDS = range(3)
COMMANDS = {
    "optimize": ["optimize"],
    "compare-mimo": ["compare-mimo"],
    "sweep-snr": ["sweep-snr", "--trials", "2", "--snr-db", "-10", "10", "30"],
}


def digests(argv: list, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        assert main([*argv, "--seed", str(seed), "--out", tmp, "--quiet"]) == 0
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(tmp).iterdir())
        }


def all_digests() -> dict:
    return {
        name: {str(s): digests(argv, s) for s in SEEDS}
        for name, argv in COMMANDS.items()
    }


def test_cli_outputs_match_golden():
    assert all_digests() == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(all_digests(), indent=1) + "\n")
