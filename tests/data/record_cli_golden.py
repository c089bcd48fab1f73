"""Record the CLI's exit code, stdout and stderr for the golden test.

Every packaged fixture runs through each command in ``COMMANDS``, in text
and ``--json`` form; the fixture that fails validation also runs through
the ``--bypass-validation`` form of each command in ``BYPASS_COMMANDS``.
The packaged fixture directory is replaced by
``FIXTURES_PLACEHOLDER`` so the recording does not depend on where the
package is installed. Run from the repository root, against the commit
whose output should become the reference:

    PYTHONPATH=src python tests/data/record_cli_golden.py

It rewrites ``tests/data/cli_golden.json`` next to this script.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from pactkit.cli import main
from pactkit.io import fixtures_dir

FIXTURES_PLACEHOLDER = "<FIXTURES>"
GOLDEN = Path(__file__).resolve().with_name("cli_golden.json")

# the argv of each command, given one fixture name
COMMANDS = {
    "validate": lambda f: ["validate", f],
    "info": lambda f: ["info", f],
    "classify": lambda f: ["classify", f],
    "orbits": lambda f: ["orbits", f],
    "globalize": lambda f: ["globalize", f],
    "globalize --topology": lambda f: ["globalize", f, "--topology"],
    "isomorphic": lambda f: ["isomorphic", f, f],
    "topology-report": lambda f: ["topology-report", f],
    "coset-check": lambda f: ["coset-check", f, "--at", least_point(f)],
}

BYPASS_FIXTURE = "remark-x"
BYPASS_COMMANDS = ("info", "orbits", "classify", "globalize", "globalize --topology")


def least_point(name: str) -> str:
    """The least carrier point of an action fixture, or the least element of
    a groupoid fixture (which ``coset-check`` rejects before reading it)."""
    payload = json.loads((fixtures_dir() / f"{name}.json").read_text())["payload"]
    return min(payload.get("carrier") or payload["elements"])


def fixture_names() -> list[str]:
    return sorted(p.stem for p in fixtures_dir().glob("*.json"))


def invocations() -> list[list[str]]:
    out = []
    for name in fixture_names():
        for build in COMMANDS.values():
            argv = build(name)
            out += [argv, [*argv, "--json"]]
    for command in BYPASS_COMMANDS:
        argv = [*COMMANDS[command](BYPASS_FIXTURE), "--bypass-validation"]
        out += [argv, [*argv, "--json"]]
    return out


def run(argv: list[str]) -> dict:
    """Exit code and both streams of one in-process CLI call, path-neutral."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    where = str(fixtures_dir())
    return {
        "argv": argv,
        "code": code,
        "stdout": out.getvalue().replace(where, FIXTURES_PLACEHOLDER),
        "stderr": err.getvalue().replace(where, FIXTURES_PLACEHOLDER),
    }


if __name__ == "__main__":
    records = [run(argv) for argv in invocations()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} invocations written to {GOLDEN}", file=sys.stderr)
