#!/usr/bin/env python3
"""Print the lines of src/chainreact that a pytest run never executes.

Usage, from the repository root:

    PYTHONPATH=src python scripts/untested_lines.py [PYTEST_ARGS...]

It runs pytest in this process with a plugin that records, through
``sys.settrace``, every line executed in a file under ``src/chainreact``.
Once the run ends it prints, per file, the lines that hold code but never
ran, as ranges, and a total.  It needs nothing but pytest and the standard
library.  Code run by a subprocess or by a process-pool worker is not
seen, so lines only those run are listed too.  This is a report, not a
gate: the exit code is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chainreact"


class LineRecorder:
    """A pytest plugin: traces the session, keeping the executed lines of
    each file under ``root``."""

    def __init__(self, root: Path):
        self.prefix = str(root) + os.sep
        # absolute path of each file under root, by its code's co_filename
        self.paths: dict[str, str | None] = {}
        self.hits: dict[str, set[int]] = defaultdict(set)

    def _call(self, frame, event, arg):
        # Only frames of the files under report get a line tracer.
        name = frame.f_code.co_filename
        if name not in self.paths:
            path = os.path.abspath(name)
            self.paths[name] = path if path.startswith(self.prefix) else None
        return self._line if self.paths[name] else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[self.paths[frame.f_code.co_filename]].add(frame.f_lineno)
        return self._line

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionstart(self, session):
        # Before collection, so module bodies run on import are seen.
        threading.settrace(self._call)
        sys.settrace(self._call)

    @pytest.hookimpl(trylast=True)
    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)


def code_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold bytecode of any of its code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """``1, 3-5`` for ``[1, 3, 4, 5]``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(hits: dict[str, set[int]], root: Path) -> str:
    out, missed_total, total = [], 0, 0
    for path in sorted(root.rglob("*.py")):
        lines = code_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        missed_total += len(missed)
        name = path.relative_to(ROOT)
        out.append(f"{name}: {len(missed)} of {len(lines)} never ran"
                   + (f": {ranges(missed)}" if missed else ""))
    out.append(f"total: {missed_total} of {total} lines with code never ran")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    recorder = LineRecorder(SRC)
    code = pytest.main(argv, plugins=[recorder])
    print(report(recorder.hits, SRC))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
