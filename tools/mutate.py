"""Mutation testing of one module under src/, standard library only.

    python3 tools/mutate.py src/lwacomm/physics.py -- tests/test_physics.py [...]

Everything after `--` is passed to pytest as the test selection (files,
node ids, `-k` expressions). Each mutant makes one change to the module,
inside a function body:

- delete: one statement is removed (a body left empty becomes `pass`);
  docstrings are left alone;
- flip: one comparison operator is swapped for its neighbour, < and <=,
  > and >=, == and !=, `is` and `is not`, `in` and `not in`.

The module is rewritten from its syntax tree (ast.unparse), so comments and
layout are lost; the unmutated rewrite is run first as a control, and the
tool stops if the selection fails on it. Each mutant is then written into
a temporary copy of src/ and the selection run on it with
`python -m pytest -x -q -p no:cacheprovider`, PYTHONPATH pointing at the
copy. A run that passes is a surviving mutant; one that fails, errors or
takes more than ten times the control run is a killed one. The tool prints
each survivor (line, kind, what changed) and the counts, and exits 1 if
any mutant survived.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Mutant(NamedTuple):
    line: int
    kind: str  # "delete" or "flip"
    change: str
    source: str


def _is_docstring(node: ast.AST, index: int, stmt: ast.stmt) -> bool:
    return (index == 0 and isinstance(node, (*FUNCTIONS, ast.ClassDef, ast.Module))
            and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _sites(tree: ast.Module) -> list:
    """The places a mutant can change, in source order: (line, "delete",
    body, index) for each statement of a function body, and (line, "flip",
    compare, index) for each flippable operator of a comparison in one."""
    sites = []

    def visit(node: ast.AST, in_function: bool) -> None:
        in_function = in_function or isinstance(node, FUNCTIONS)
        if in_function:
            for field in ("body", "orelse", "finalbody"):
                body = getattr(node, field, None)
                if isinstance(body, list):
                    sites.extend((stmt.lineno, "delete", body, i) for i, stmt in enumerate(body)
                                 if not _is_docstring(node, i, stmt))
            if isinstance(node, ast.Compare):
                sites.extend((node.lineno, "flip", node, i)
                             for i, op in enumerate(node.ops) if type(op) in FLIPS)
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return sorted(sites, key=lambda site: (site[0], site[1], site[3]))


def mutants(source: str) -> list[Mutant]:
    """Every single-change mutant of a module's source, in source order."""
    result = []
    for i in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)  # a fresh tree, so each mutant makes one change
        line, kind, node, index = _sites(tree)[i]
        if kind == "delete":
            change = ast.unparse(node[index]).splitlines()[0]
            del node[index]
            if not node:
                node.append(ast.Pass())
        else:
            before = ast.unparse(node)
            node.ops[index] = FLIPS[type(node.ops[index])]()
            change = f"{before}  ->  {ast.unparse(node)}"
        result.append(Mutant(line, kind, change, ast.unparse(tree)))
    return result


def _run(src: Path, selection: list[str], timeout: float | None) -> tuple[bool, float]:
    """Whether the selection passes with src on PYTHONPATH, and how long it took."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def run_mutants(module: Path, src: Path, selection: list[str], report=print) -> list:
    """(mutant, survived) for every mutant of module, a file under src, in
    source order. Raises RuntimeError if the selection fails the unmutated
    rewrite."""
    source = module.read_text()
    relative = module.resolve().relative_to(src.resolve())
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / relative
        target.write_text(ast.unparse(ast.parse(source)))
        passed, seconds = _run(copy, selection, None)
        if not passed:
            raise RuntimeError(f"the selection fails on the unmutated {relative}")
        results = []
        every = mutants(source)
        for n, mutant in enumerate(every, 1):
            target.write_text(mutant.source)
            survived, _ = _run(copy, selection, 10.0 * seconds)
            results.append((mutant, survived))
            report(f"[{n}/{len(every)}] {'SURVIVED' if survived else 'killed'} "
                   f"{relative}:{mutant.line} {mutant.kind}: {mutant.change}")
    return results


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="a module file under src/")
    args = parser.parse_args(argv[:split])
    selection = argv[split + 1 :]
    if not selection:
        parser.error("give the pytest selection after --")
    if not args.module.resolve().is_relative_to((ROOT / "src").resolve()):
        parser.error(f"{args.module} is not under {ROOT / 'src'}")
    results = run_mutants(args.module, ROOT / "src", selection,
                          report=lambda line: print(line, flush=True))
    found = [mutant for mutant, survived in results if survived]
    print(f"{len(results)} mutants of {args.module}: "
          f"{len(results) - len(found)} killed, {len(found)} survived")
    for mutant in found:
        print(f"  survivor {args.module}:{mutant.line} {mutant.kind}: {mutant.change}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
