"""Run tier-1 in process under sys.settrace and fail on any statement of
src/sweeplab that no test reaches, unless ALLOWED names it.

Usage, from the repository root: PYTHONPATH=src python tests/line_trace.py
Extra arguments go to pytest. The exit code is pytest's when the tests fail,
1 when a statement outside ALLOWED is unreached or an ALLOWED statement is
reached or no longer in the source (the list is kept exact), and 0
otherwise. Standard library only.

A statement is executable when the compiled module has an instruction on a
line of its header (the whole statement, for a simple one; the lines before
its body, for a compound one), and reached when a line event fires on one of
those lines. Docstrings and other statements with no instructions are not
counted. The file's name does not start with test_, so pytest does not
collect it.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sweeplab"

# (file in src/sweeplab, statement text) -> why no tier-1 test reaches it.
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ call runs only when cli.py is executed as a script; "
        "tier-1 calls main() in process, and CI's numpy-only job runs the script",
}


def _code_lines(code) -> set:
    """The lines with an instruction in code and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path):
    """(first line, header lines, text) for each executable statement in path."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        header = set(range(first, last + 1)) & executable
        if header:
            text = ast.get_source_segment(source, node).splitlines()[0]
            yield first, header, " ".join(text.split())


def _trace(hits: dict):
    """A global trace function that records line events in the files keyed in hits."""
    files = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = hits.get(os.path.realpath(name))
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return tracer


def main(argv) -> int:
    sources = sorted(PACKAGE.glob("*.py"))
    hits = {os.path.realpath(p): set() for p in sources}
    if any(name == "sweeplab" or name.startswith("sweeplab.") for name in sys.modules):
        sys.exit("sweeplab is imported before tracing starts; its module-level lines would read unreached")
    tracer = _trace(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"line trace: tier-1 exited {int(code)}")
        return int(code)

    unreached, allowed_seen, present, count = [], set(), set(), 0
    for path in sources:
        reached = hits[os.path.realpath(path)]
        for line, header, text in _statements(path):
            count += 1
            key = (path.name, text)
            present.add(key)
            if header & reached:
                continue
            if key in ALLOWED and key not in allowed_seen:
                allowed_seen.add(key)
            else:
                unreached.append(f"src/sweeplab/{path.name}:{line}: {text}")
    stale = [key for key in ALLOWED if key not in allowed_seen]
    for entry in unreached:
        print(f"unreached: {entry}")
    for name, text in stale:
        print(f"allowlisted but {'reached' if (name, text) in present else 'absent'}: {name}: {text}")
    print(f"line trace: {count} statements in {len(sources)} files, "
          f"{len(unreached) + len(allowed_seen)} unreached, {len(allowed_seen)} of them allowlisted")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
