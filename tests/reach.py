"""Opt-in pytest plugin: which lines of ``src/uavloop`` the tests reach.

Run the suite with it loaded (pytest does not collect this file, so a plain
run is unchanged)::

    PYTHONPATH=src:tests python -m pytest -q -p reach

It traces with the standard library's ``sys.settrace`` and sorts every
function-body line of the package into three sets: reached by the CLI tests
(``test_cli.py`` and ``test_acceptance.py``), reached only by the other
(unit) tests, and reached by no test.  The summary prints the three counts
and the unit-only and unreached lines as ``file: line ranges``.  Module and
class bodies run at import time and are not counted.  Tracing slows the
suite several times over, so the acceptance tests' wall-clock budgets may
fail under it.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading

_SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src", "uavloop"))
_CLI_TESTS = frozenset(("test_cli.py", "test_acceptance.py"))
# Comprehensions and generator expressions in a module or class body run at import.
_IMPORT_TIME = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"))

_reached: dict[str, set] = {"cli": set(), "unit": set()}
_hits = _reached["unit"]
_in_src: dict = {}


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    inside = _in_src.get(code)
    if inside is None:
        inside = _in_src[code] = os.path.realpath(code.co_filename).startswith(_SRC + os.sep)
    return _line if inside else None


def _body_lines(code, in_function: bool, out: set) -> None:
    """Add the lines of every function body nested in code to out."""
    if in_function:
        out.update(
            (code.co_filename, line)
            for _, _, line in code.co_lines()
            if line is not None and line != code.co_firstlineno
        )
    for const in code.co_consts:
        if isinstance(const, type(code)):
            is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)  # not a class body
            if in_function or (is_function and const.co_name not in _IMPORT_TIME):
                _body_lines(const, True, out)
            elif not is_function:
                _body_lines(const, False, out)


def _executable() -> set:
    lines: set = set()
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            path = os.path.join(_SRC, name)
            with open(path, encoding="utf-8") as fh:
                _body_lines(compile(fh.read(), path, "exec"), False, lines)
    return lines


def _ranges(lines) -> str:
    """'file: a-b, c' for each file of a set of (path, line) pairs."""
    by_file: dict = {}
    for path, line in sorted(lines):
        by_file.setdefault(os.path.basename(path), []).append(line)
    out = []
    for name, nums in by_file.items():
        spans, start = [], nums[0]
        for prev, cur in zip(nums, nums[1:] + [None]):
            if cur != prev + 1:
                spans.append(str(start) if start == prev else f"{start}-{prev}")
                start = cur
        out.append(f"  {name}: {', '.join(spans)}")
    return "\n".join(out)


def pytest_sessionstart(session):
    sys.settrace(_call)
    threading.settrace(_call)


def pytest_runtest_setup(item):
    global _hits
    _hits = _reached["cli" if item.path.name in _CLI_TESTS else "unit"]


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    executable = _executable()
    src = {(os.path.realpath(path), line) for path, line in executable}
    cli = {(os.path.realpath(p), n) for p, n in _reached["cli"]} & src
    unit = {(os.path.realpath(p), n) for p, n in _reached["unit"]} & src - cli
    none = src - cli - unit
    write = terminalreporter.write_line
    write(f"src/uavloop function-body lines: {len(src)}")
    write(f"  reached by test_cli.py/test_acceptance.py: {len(cli)}")
    write(f"  reached only by unit tests: {len(unit)}")
    write(f"  reached by no test: {len(none)}")
    write("unit-only lines:")
    write(_ranges(unit))
    write("unreached lines:")
    write(_ranges(none))
