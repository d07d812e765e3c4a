"""Run the run list on a git revision and on the working tree, and fail on
any difference in what the runs print or write.

Usage, from anywhere in the repository: python tests/same_outputs.py [REV]

REV (default HEAD) is checked out with `git worktree add --detach` into a
temporary directory, which is removed at the end. Each line of
tests/run_list.txt is `label|expected exit|flags`; the working tree's list
is run on both trees, each run in a fresh `python -m sweeplab.cli run FLAGS
--out LABEL` process with that tree's src as PYTHONPATH and a per-tree
directory as its working directory, so the two trees' runs name the same
paths. Exit codes, stdout, stderr and every output file are compared, and
each difference is printed with its first differing line. The exit code is
1 on any difference, or when a run does not exit with its listed code, and
0 otherwise. Standard library and git only. It is not a tier-1 test: a
specification change is meant to change outputs, and this command lists
the files it changed.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_LIST = ROOT / "tests" / "run_list.txt"


def read_run_list(path: Path = RUN_LIST) -> list:
    """[(label, expected exit code, flags)], one per line of the run list."""
    runs = []
    for line in path.read_text().splitlines():
        label, code, flags = line.split("|")
        runs.append((label, int(code), flags.split()))
    return runs


def run_all(tree: Path, work: Path, runs: list) -> dict:
    """Run every listed run on tree's src, inside work: label -> (exit code, stdout, stderr)."""
    work.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    results = {}
    for label, _, flags in runs:
        proc = subprocess.run([sys.executable, "-m", "sweeplab.cli", "run", *flags, "--out", label],
                              cwd=work, env=env, capture_output=True)
        results[label] = (proc.returncode, proc.stdout, proc.stderr)
    return results


def first_difference(a: bytes, b: bytes) -> str:
    """The first line where a and b differ, with both texts."""
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    k = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    x, y = (lines[k][:200] if k < len(lines) else b"<end of file>" for lines in (la, lb))
    return f"line {k + 1}: {x!r} != {y!r}"


def files(top: Path) -> set:
    """The paths of the files under top, relative to it."""
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def compare(runs: list, base: Path, head: Path, base_results: dict, head_results: dict) -> list:
    """Every difference between the base and head runs, and every unexpected exit code, as text."""
    problems = []
    for label, expected, _ in runs:
        for side, (code, _, _) in (("base", base_results[label]), ("head", head_results[label])):
            if code != expected:
                problems.append(f"{label}: {side} exited {code}, listed {expected}")
        for name, a, b in zip(("exit code", "stdout", "stderr"), base_results[label], head_results[label]):
            if a != b:
                where = "" if name == "exit code" else f", {first_difference(a, b)}"
                problems.append(f"{label}: {name} differs{where}")
    for rel in sorted(files(base) | files(head)):
        a, b = base / rel, head / rel
        if not (a.is_file() and b.is_file()):
            problems.append(f"{rel}: only in {'base' if a.is_file() else 'head'}")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"{rel}: {first_difference(a.read_bytes(), b.read_bytes())}")
    return problems


def main(argv: list) -> int:
    rev = argv[0] if argv else "HEAD"
    runs = read_run_list()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(tree), rev],
                       check=True)
        try:
            base_results = run_all(tree, tmp / "base", runs)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)
        head_results = run_all(ROOT, tmp / "head", runs)
        problems = compare(runs, tmp / "base", tmp / "head", base_results, head_results)
        count = len(files(tmp / "head"))
    for line in problems:
        print(line)
    print(f"{len(runs)} runs, {count} output files: "
          + (f"{len(problems)} differences against {rev}" if problems else f"same outputs as {rev}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
