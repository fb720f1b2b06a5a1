"""A pytest plugin that lists the lines under src/ that no test executes.

Stdlib only: ``sys.settrace`` (and ``threading.settrace``) record each line
run in a file under src/ while pytest runs, and at the end of the run
every line that the files' compiled code can execute, and that did not run,
is printed per file as ranges, with a total. Run it from the repository
root, outside the tier-1 run:

    PYTHONPATH=src:tools python -m pytest -q -p unreached

Only this process is traced: code that tests run in a subprocess (the CLI
through ``conftest.run_cli``, the benchmark smoke test) counts as not run,
so a line reached only that way is listed. A line listed here is a line no
in-process test reaches, not proof of dead code. Tracing slows the run:
tier-1 took about 1.5 times as long on a 2-core VM.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_ran: dict[str, set[int]] = {}           # real path under src/ -> lines run
_by_name: dict[str, set[int] | None] = {}  # co_filename -> its _ran set, or None


def _lines_run(name: str) -> set[int] | None:
    if name not in _by_name:
        path = os.path.realpath(name)
        inside = path.startswith(str(SRC) + os.sep)
        _by_name[name] = _ran.setdefault(path, set()) if inside else None
    return _by_name[name]


def _local(frame, event, arg):
    if event == "line":
        _by_name[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return None if _lines_run(frame.f_code.co_filename) is None else _local


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _executable(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    return {line for co in _code_objects(code) for _, _, line in co.co_lines() if line}


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def unreached_report() -> list[str]:
    """One line per file with lines that did not run, then the total."""
    out, n_missed, n_lines = [], 0, 0
    for path in sorted(SRC.rglob("*.py")):
        lines = _executable(path)
        missed = sorted(lines - _ran.get(os.path.realpath(path), set()))
        n_missed += len(missed)
        n_lines += len(lines)
        if missed:
            out.append(f"{path.relative_to(SRC.parent)}: {_ranges(missed)}")
    out.append(f"unreached: {n_missed} of {n_lines} executable lines under src/")
    return out


def pytest_configure(config):
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("lines under src/ that no test ran")
    for line in unreached_report():
        terminalreporter.write_line(line)
