"""List the lines of src/vgpricer that the tier-1 suite never executes.

    python tests/linetrace.py [pytest arguments]

runs the suite in this process under sys.settrace and prints each line of
the package that holds bytecode but never ran, as `path:line: source`,
followed by the count.  It needs nothing beyond the standard library and
pytest.  Only this process is traced, so a line that runs only in a
subprocess (the CLI's entry-point tests start some) is listed as never
executed.  pytest does not collect this file, whose name has no test_
prefix.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vgpricer"


def _code_lines(code):
    """Every line that holds bytecode in code and the code objects it nests."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _executable_lines():
    """{path: lines holding bytecode} over the package's modules."""
    return {
        str(path): _code_lines(compile(path.read_text(), str(path), "exec"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def main(argv):
    executable = _executable_lines()
    seen = {path: set() for path in executable}
    # a module imported through a relative sys.path entry has a relative file name
    by_name = {**seen, **{os.path.relpath(path, ROOT): lines for path, lines in seen.items()}}

    def trace_calls(frame, event, arg):
        lines = by_name.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    os.chdir(ROOT)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path, lines_of_path in executable.items():
        source = Path(path).read_text().splitlines()
        for line in sorted(lines_of_path - seen[path]):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines never executed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
