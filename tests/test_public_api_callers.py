"""Every public function and class of the package has a caller outside the
tests.

An API that only tests call is a second code path the program never runs:
tests of it pass while the path the program does run goes unchecked. This
test parses src/lwacomm/*.py and lists each public module-level function or
class that no module under src/, perfbench/ or tools/ names, other than the
package's __init__.py and the test_* files.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "perfbench", "tools")


def public_definitions():
    """{name: module file} of the public module-level defs in src/lwacomm."""
    defined = {}
    for path in sorted((ROOT / "src" / "lwacomm").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
    return defined


def referenced_names():
    """Every name and attribute read in the caller modules."""
    names = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if path.name == "__init__.py" or path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_definition_has_a_caller():
    defined = public_definitions()
    assert "diffraction_gain_grid" in defined and "LwaConfig" in defined
    referenced = referenced_names()
    unused = sorted(
        f"{module}::{name}" for name, module in defined.items() if name not in referenced
    )
    assert unused == [], f"public API with no caller outside the tests: {unused}"
