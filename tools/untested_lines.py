"""Print each statement of ``src/qcbnn`` that the Tier-1 suite never runs.

Usage, from the repository root::

    PYTHONPATH=src python tools/untested_lines.py [extra pytest args]

The suite runs in this process under ``sys.settrace`` and
``threading.settrace``; only frames of the package's files are traced line
by line.  Subprocesses (the demos, the thread-count criterion) are not
counted.  A statement counts as run when any line of its own span ran:
its whole extent for a simple statement, its header for a compound one.
Docstrings are not statements here.  Standard library only; it is slower
than the plain suite and is not part of it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qcbnn")


def executable_lines(code) -> set[int]:
    """Lines that own bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statement_spans(path: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement's own span in a source file:
    a simple statement's whole extent, a compound one's header.  A span
    with no bytecode (a docstring, a ``try:`` line) is no statement."""
    with open(path) as fh:
        source = fh.read()
    executable = executable_lines(compile(source, path, "exec"))
    spans = []
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        if executable.intersection(range(node.lineno, last + 1)):
            spans.append((node.lineno, last))
    return spans


def main(argv: list[str]) -> int:
    import pytest

    files = {os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
             if name.endswith(".py")}
    hits: dict[str, set[int]] = {path: set() for path in files}

    lines_of: dict[str, set[int] | None] = {}  # by co_filename, as imported

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = hits.get(os.path.abspath(name))
        ran = lines_of[name]
        if ran is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        ran.add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                            *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(files):
        ran = hits[path]
        with open(path) as fh:
            lines = fh.read().splitlines()
        for first, last in sorted(statement_spans(path)):
            total += 1
            if not ran.intersection(range(first, last + 1)):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements never ran (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
