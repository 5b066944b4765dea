"""List the lines of `src/capmon` that the tier-1 suite never executes and
that `tests/linecov_allow.txt` gives no reason for.

Runs the suite in this process under `sys.settrace` and `threading.settrace`,
tracing only frames whose code lives in `src/capmon`, and finds each
function-body line that no test executed (a `def` line, module code and
class bodies are not counted).  It prints those the allow list does not
name, then the list's entries that match no such line any more, and exits
non-zero if there are any of either.  It starts no process or thread of its
own; the suite's own tests start theirs as usual, and lines run in a
subprocess are not seen.  Pytest does not collect this file.  From the
repository root:

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

The allow list keys a line by file, function and source text, not by line
number, so that edits elsewhere in a file leave it valid.  Each entry is
`<file>:<function's qualified name>: <stripped source line>`, and the line
`reason: <why>` before a group of entries gives the reason for all of them.
Blank lines and lines starting with `#` are ignored.
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
ALLOW = ROOT / "tests" / "linecov_allow.txt"

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


def body_lines(code: types.CodeType, owner: dict[int, str]) -> dict:
    """Map each line of every function body nested in `code` to the
    qualified name of the innermost function it belongs to, into `owner`."""
    if code.co_flags & inspect.CO_OPTIMIZED:
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                owner[line] = code.co_qualname
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            body_lines(const, owner)
    return owner


def read_allow(path: Path) -> dict[tuple[str, str, str], str]:
    """The allow list's entries, (file, function, source text), with the
    reason each is given."""
    allowed, reason = {}, None
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("reason:"):
            reason = line[len("reason:"):].strip()
            continue
        parts = [part.strip() for part in line.split(":", 2)]
        if len(parts) != 3 or not reason:
            raise SystemExit(f"{path.name}:{number}: an entry is "
                             "<file>:<function>: <source>, after a reason")
        allowed[tuple(parts)] = reason
    return allowed


def main(args: list[str]) -> int:
    os.chdir(ROOT)
    allowed = read_allow(ALLOW)
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    seen = {(os.path.abspath(f), n) for f, n in executed}
    missed, unlisted, matched = 0, 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        owner = body_lines(compile(source, str(path), "exec"), {})
        for line in sorted(owner):
            if (str(path), line) in seen:
                continue
            missed += 1
            key = (path.name, owner[line], text[line - 1].strip())
            if key in allowed:
                matched.add(key)
                continue
            unlisted += 1
            print(f"{key[0]}:{key[1]}: {key[2]}")
    stale = [key for key in allowed if key not in matched]
    for key in stale:
        print(f"stale entry {key[0]}:{key[1]}: {key[2]}")
    print(f"{missed} function-body lines not executed, {unlisted} of them "
          f"not in {ALLOW.name}; {len(stale)} stale entries")
    return int(status) or int(bool(unlisted or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
