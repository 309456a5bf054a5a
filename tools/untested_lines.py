"""The statements of src/ldl that no test runs.

    python3 tools/untested_lines.py [PYTEST ARGS ...]

Run from the root of the repository.  Runs pytest in this process, with
src on sys.path and on PYTHONPATH as the Tier-1 command puts it, and the
arguments given (by default `-q -m "not slow"`).  sys.settrace and
threading.settrace record every line run in a frame whose file lies under
src/ldl, on the pool's threads too; subprocesses are not traced.  Then it
prints, per module, each statement below module level that no recorded
line belongs to.  Module-level statements run at import and are left out,
as are docstrings and the statements that compile to no code of their own
(try, global, nonlocal).  Standard library only, besides pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ldl"
DEFAULT_ARGS = ["-q", "-m", "not slow"]
_NO_CODE = (ast.Try, ast.Global, ast.Nonlocal) + (
    (ast.TryStar,) if hasattr(ast, "TryStar") else ())


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def untested(source: str, hits: set) -> list:
    """The first lines of the statements of `source` below module level
    that own none of the line numbers in `hits`, ascending.  A statement
    owns its lines, decorators included, less those of the statements
    nested in it, so a compound statement is run when its header is."""
    out = []
    module = ast.parse(source)
    top = set(map(id, module.body))
    for node in ast.walk(module):
        if (not isinstance(node, ast.stmt) or id(node) in top
                or isinstance(node, _NO_CODE) or _is_docstring(node)):
            continue
        first = min([d.lineno for d in
                     getattr(node, "decorator_list", ())] + [node.lineno])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        if not own & hits:
            out.append(node.lineno)
    return sorted(out)


def _record(hits: dict):
    """A global trace function that records (file, line) of every line
    event in the frames of the package, and traces no other frame."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(
                frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return call


def main(argv: list) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    hits: dict = {}
    tracer = _record(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        missed = untested(source, hits.get(str(path), set()))
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} statements not run")
        for n in missed:
            print(f"  {n}: {lines[n - 1].strip()}")
    print(f"{total} statements not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
