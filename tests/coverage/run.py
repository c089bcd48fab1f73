"""Line coverage of ``src/pactkit`` under the tier-1 suite, with the
standard library only.

Run from anywhere:

    python tests/coverage/run.py [-o RECORD] [pytest arguments]

The suite runs in this process under a ``sys.settrace`` hook (threads too),
and RECORD (default ``build/coverage.json`` at the repository root) gets
every executable line of ``src/pactkit`` that no test reached, by file.  A
line is executable when the compiled module has an instruction on it
(``code.co_lines``), so docstrings, comments and ``else:`` lines are not
counted.  Lines that run only in a subprocess (``python -m pactkit``) are
never reached here.  pytest does not collect this file, and tier-1 does
not run it: the hook makes the suite several times slower.

The hook makes no closure per frame: one module-level function traces
every frame of ``src/pactkit``, so a traced run leaves the same garbage as
an untraced one (``test_json_commands_leave_no_cyclic_garbage`` checks
that no command leaves any).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "pactkit"
_prefix = str(SOURCE)
_reached: dict = {}  # file name -> the set of its lines that ran


def _line(frame, event, arg):
    if event == "line":
        _reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_prefix):
        return None
    _reached.setdefault(name, set()).add(frame.f_lineno)
    return _line


def executable_lines(path: Path) -> set:
    """The lines that hold an instruction of the module or of any code
    object nested in it."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 before the first line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def record(pytest_exit: int) -> dict:
    files, total, unreached = {}, 0, 0
    for path in sorted(SOURCE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - _reached.get(str(path), set()))
        files[str(path.relative_to(ROOT))] = {"executable": len(lines), "unreached": missed}
        total, unreached = total + len(lines), unreached + len(missed)
    return {"pytest_exit": pytest_exit, "executable": total, "unreached": unreached, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=str(ROOT / "build" / "coverage.json"))
    args, pytest_args = parser.parse_known_args(argv)
    import pytest  # before the hook: only pactkit's frames are wanted

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    result = record(int(code))
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"unreached: {result['unreached']} of {result['executable']} executable lines; record in {out}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
