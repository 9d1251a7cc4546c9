import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "faults.py"
_SPEC = importlib.util.spec_from_file_location("faults", _PATH)
faults = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(faults)


def test_two_optimize_ops_in_a_fresh_process(capsys):
    assert faults.main(["--ops", "2", "--workload", "optimize-default"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "faults/op", "p50", "ms", "ops"]
    name, per_op, p50_ms, ops = row.split()
    assert name == "optimize-default" and ops == "2"
    assert float(per_op) >= 0 and float(p50_ms) > 0
