"""Lines of ``src/wol`` that a pytest run leaves unrun, by a stdlib line tracer.

    PYTHONPATH=src python tools/linecov.py [pytest arguments]

Run it from the repository root, with ``src`` on ``PYTHONPATH`` as for the
tests, whose subprocesses import ``wol`` from there.

Runs pytest in this interpreter under ``sys.settrace``, tracing only
frames whose code is in ``src/wol``, and compares the lines hit with the
lines each code object maps to (``co_lines``).  Prints each module's
unrun lines and the total.  Subprocesses that the tests start are not
traced.
"""

import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = str(SRC / "wol")


def executable_lines(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    hits: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        seen = hits.setdefault(frame.f_code.co_filename, set())

        def line(frame, event, arg):
            seen.add(frame.f_lineno)
            return line
        return line

    sys.path.insert(0, str(SRC))
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    unrun_total = executable_total = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - hits.get(str(path), set()))
        unrun_total, executable_total = unrun_total + len(unrun), executable_total + len(lines)
        listed = ": " + ", ".join(map(str, unrun)) if unrun else ""
        print(f"{path.name}: {len(unrun)} of {len(lines)} unrun{listed}")
    print(f"total: {unrun_total} of {executable_total} executable lines unrun")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
