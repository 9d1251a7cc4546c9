import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"
_SPEC = importlib.util.spec_from_file_location("mutate", _PATH)
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)

TOY = '''"""A toy module."""

LIMIT = 3


def clamp(x):
    """x, or LIMIT if x exceeds it."""
    if x > LIMIT:
        x = LIMIT
    return x
'''

TOY_TEST = '''from toy import clamp


def test_clamp():
    assert clamp(5) == 3 and clamp(1) == 1
'''


def test_mutant_list_of_a_toy_module():
    # module-level statements and docstrings are left alone
    got = [(m.line, m.kind, m.change) for m in mutate.mutants(TOY)]
    assert got == [
        (8, "delete", "if x > LIMIT:"),
        (8, "flip", "x > LIMIT  ->  x >= LIMIT"),
        (9, "delete", "x = LIMIT"),
        (10, "delete", "return x"),
    ]
    sources = [m.source for m in mutate.mutants(TOY)]
    assert "if x >" not in sources[0] and "x >= LIMIT" in sources[1]
    assert "if x > LIMIT:\n        pass" in sources[2] and "return" not in sources[3]


def test_only_the_untested_boundary_survives(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "toy.py").write_text(TOY)
    (tmp_path / "test_toy.py").write_text(TOY_TEST)
    results = mutate.run_mutants(src / "toy.py", src, [str(tmp_path / "test_toy.py")],
                                 report=lambda line: None)
    assert [(m.line, m.kind) for m, survived in results if survived] == [(8, "flip")]
    assert len(results) == 4
