"""List the lines of `src/capmon` that the tier-1 suite never executes.

Runs the suite in this process under `sys.settrace` and `threading.settrace`,
tracing only frames whose code lives in `src/capmon`, then prints each
function-body line that no test executed (a `def` line, module code and
class bodies are not counted) and their count.  It starts no process or
thread of its own; the suite's own tests start theirs as usual, and lines run
in a subprocess are not seen.  Pytest does not collect this file.  From the
repository root:

    PYTHONPATH=src python tests/linecov.py [pytest arguments]
"""

import inspect
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "capmon"

executed: set[tuple[str, int]] = set()
_inside: dict[str, bool] = {}


def _line(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    filename = frame.f_code.co_filename
    inside = _inside.get(filename)
    if inside is None:
        inside = _inside[filename] = \
            Path(os.path.abspath(filename)).parent == PACKAGE
    return _line if inside else None


def body_lines(code: types.CodeType) -> set[int]:
    """The lines of every function body nested in `code`."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= body_lines(const)
    if code.co_flags & inspect.CO_OPTIMIZED:
        lines |= {line for _, _, line in code.co_lines()
                  if line is not None and line != code.co_firstlineno}
    return lines


def main(args: list[str]) -> int:
    os.chdir(ROOT)
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    seen = {(os.path.abspath(f), n) for f, n in executed}
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(body_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in seen:
                missed += 1
                print(f"{path.name}:{line}: {text[line - 1].strip()}")
    print(f"{missed} function-body lines not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
