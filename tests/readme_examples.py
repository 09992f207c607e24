"""The ``polyest reduce`` and ``polyest simulate`` examples of README.md.

``examples()`` parses each of them from the README: the command after
``$`` (backslash continuations joined) and the lines printed below it.
Run from the repository root as a script, this module runs every example
through ``polyest.cli.main`` and exits 1 if any output differs from the
README byte for byte:

    python tests/readme_examples.py
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("reduce", "simulate")


def examples() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) of each README example of COMMANDS."""
    found = []
    # Between the fences, every other chunk is the body of a code block.
    for block in README.read_text(encoding="utf-8").split("```")[1::2]:
        lines = block.strip("\n").splitlines()
        if not lines or not lines[0].startswith("$ polyest "):
            continue
        command = lines.pop(0)[2:]
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        argv = shlex.split(command)[1:]
        if argv[0] in COMMANDS:
            found.append((argv, "".join(f"{line}\n" for line in lines)))
    if sorted(argv[0] for argv, _ in found) != sorted(COMMANDS):
        raise ValueError(f"README.md should hold one example of each of {COMMANDS}")
    return found


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``polyest.cli.main(argv)``."""
    from polyest.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


if __name__ == "__main__":
    failed = False
    for argv, expected in examples():
        code, out = run(argv)
        if (code, out) != (0, expected):
            failed = True
            print(f"polyest {shlex.join(argv)}: exit {code}, stdout differs from README.md:\n"
                  f"{out}", file=sys.stderr)
    sys.exit(1 if failed else 0)
