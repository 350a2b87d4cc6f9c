"""Print the lines of ``src/aztec_triangles`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace``, tracing only frames whose
code lives in the package, and prints every executable ``file:line`` that no
test reached, then a count.  A module's executable lines are the lines of its
code objects' ``co_lines``.  Code that tests run in a child process is not
seen.  The script asserts nothing; its exit status is pytest's.  Tracing slows
the suite several times over, so tests with a time bound may fail under it.

Usage, from the repository root (extra arguments go to pytest):

    python tools/unrun_lines.py [-x] [tests/test_paths.py ...]
"""

import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aztec_triangles"


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from ``path``; line 0, where
    a module's code starts, is no line of the file."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def main(args: list[str]) -> int:
    prefix = str(PACKAGE)
    ran: defaultdict[str, set[int]] = defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        seen = ran.get(str(path), set())
        missed = sorted(executable_lines(path) - seen)
        unrun += [f"{path.relative_to(ROOT)}:{line}" for line in missed]
    print(*unrun, sep="\n")
    print(f"{len(unrun)} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
