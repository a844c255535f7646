"""List every statement of the gaugekit package that the test suite never runs.

Run from the root of a checkout, with no options:

    python3 tests/trace_unrun.py

It runs the tier-1 suite (``pytest -q`` over ``tests/``) in this process
under ``sys.settrace``, with line events only in frames whose code lives in
``src/gaugekit``, and then prints ``path:line: source`` for each statement
none of whose lines ran, module by module, and a count. A statement's lines
are its own: a compound statement (``if``, ``for``, ``try``, ``def``, ...)
owns its header, not its body. Tracing starts before gaugekit is imported,
so module-level code counts. Tests that run gaugekit in a subprocess are
not seen. The exit status is pytest's.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugekit"
_BODIES = ("body", "orelse", "finalbody", "handlers")


def _code_lines(code) -> set:
    """Lines that carry bytecode in a code object and all those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree) -> list:
    """(first line, lines) of every statement and except clause, the lines
    running from the statement's start to the line before its first body."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        starts = [child.lineno for name in _BODIES for child in getattr(node, name, ())]
        last = min(starts) - 1 if starts else node.end_lineno
        out.append((node.lineno, set(range(node.lineno, max(last, node.lineno) + 1))))
    return out


def _unrun(path: Path, ran: set) -> list:
    source = path.read_text()
    code = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    return [(line, text[line - 1].strip()) for line, own in _statements(ast.parse(source))
            if own & code and not own & ran]


def main() -> int:
    import pytest

    ran = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "tests"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        rows = _unrun(path, ran.get(str(path), set()))
        total += len(rows)
        for line, text in sorted(rows):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{total} statements in src/gaugekit never ran under the tests")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
