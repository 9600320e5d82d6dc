"""Statement gate: every statement of src/npatch must run under tier-1.

The script runs tier-1 in this interpreter under a sys.settrace line trace
that follows only the files of src/npatch, then prints each statement that
never ran, as file:line, and fails when there is one or when tier-1 fails.
A statement is a line on which an instruction of the compiled module, or of
a code object nested in it, starts.  The one exception is cli's
`if __name__ == "__main__":` guard and its body: tier-1 calls main() itself.

pytest does not collect this file (its name does not start with test_).
Run it from anywhere:

    python tests/statements.py
"""

import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "npatch"
GUARD = 'if __name__ == "__main__":\n'


def statements(code):
    """The lines on which an instruction of code, or of a code object nested in it, starts."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= statements(const)
    return lines


def main():
    ran = set()

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):  # a new frame: follow it only inside the package
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(prefix) else None

    prefix = str(PACKAGE) + os.sep
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)  # tier-1's rootdir and testpaths
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = statements(compile(text, str(path), "exec"))
        if path.name == "cli.py":
            guard = text[:text.index(GUARD)].count("\n") + 1
            lines = {line for line in lines if line < guard}
        missed += ["%s:%d" % (path.relative_to(ROOT), line)
                   for line in sorted(lines) if (str(path), line) not in ran]
    print("\n".join(["statements tier-1 never ran:"] + missed) if missed
          else "tier-1 ran every statement of src/npatch")
    return 1 if code or missed else 0


if __name__ == "__main__":
    sys.exit(main())
