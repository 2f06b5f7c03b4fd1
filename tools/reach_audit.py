"""Reach audit: which ``src/repro`` functions do tier-1 and the smokes never call?

A stdlib ``sys.setprofile`` hook records the code object of every Python
frame that runs while the fast test tier (the default ``pytest``
invocation, so tests marked slow stay out) and the fast-tier CI smoke
commands run in this process; the smokes go through ``repro.cli.main``.
An ``ast`` inventory of every ``def`` under ``src/repro`` is then matched
against those code objects by file and first line. A ``def`` whose body
is only a docstring, ``...`` and/or ``raise NotImplementedError`` declares
an interface (a ``Protocol`` method or an abstract hook) and is left out
of the inventory.

What the hook cannot see: worker processes (the process executor runs
jobs in spawned children), subprocesses, and slow-tier tests. Those are
the usual answers in ``tools/unreached.txt``, which lists every
never-called function as ``path:line qualname  # what reaches it``.

Usage (from the repository root)::

    python tools/reach_audit.py            # print never-called functions
    python tools/reach_audit.py --check    # compare with tools/unreached.txt
    python tools/reach_audit.py --write    # rewrite it, keeping its notes

``--check`` exits 1 when a function missing from the list is never
called, and reports (also into ``$GITHUB_STEP_SUMMARY`` when set) listed
functions that are now reached or gone. Any mode exits 2 when a test or
a smoke fails, since the reach set is then incomplete. Entries are
matched by path and qualname, so line drift does not fail a check;
``--write`` refreshes the lines and marks new entries ``?`` for a note.

Cost: the hook runs on every Python and C call, so an audit takes about
4x tier-1's wall time. On a 2-vCPU Intel Xeon host (Python 3.11) tier-1
took 6.5 minutes and an audit 24 (tier-1 23 of them, the smokes 1).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
LIST_PATH = os.path.join(ROOT, "tools", "unreached.txt")

#: The fast-tier CI smokes (``.github/workflows/ci.yml``) as
#: ``(argv, expected exit codes)``, run in order from one scratch
#: directory; ``{root}`` is the repository root.
SMOKES = (
    (["faults", "--scenario", "ring", "--hours", "0.05", "--compress",
      "--seed", "1", "--metrics", "ring_smoke_metrics.json"], (0,)),
    (["chaos", "--loss", "0.05", "--loss-start", "20", "--duration", "90",
      "--seed", "3", "--metrics", "chaos_smoke_metrics.json"], (0,)),
    (["campaign", "--colluders", "1", "--duration", "180", "--seed", "3",
      "--metrics", "campaign_smoke_metrics.json"], (0,)),
    (["cyber", "--policy", "identical", "--scale", "0.12", "--seed", "3"],
     (0,)),
    (["cyber", "--policy", "diverse", "--scale", "0.12", "--seed", "3"],
     (0,)),
    (["linkfail", "--seed", "12"], (0,)),
    (["sweep", "envelope", "--scenario", "paper-mesh4", "--duration", "60",
      "--no-cache", "--metrics", "envelope_smoke_metrics.json"], (0,)),
    # The sweep-table smoke; its `study run` of an inline lossrate spec is
    # left out (argv only here), and tier-1's study-plan pins reach that
    # spec planner.
    (["sweep", "lossrate", "--duration", "60", "--no-cache", "--json"],
     (0,)),
    (["linkfail", "--trunk", "sw1", "sw9"], (2,)),
    (["study", "run", "{root}/examples/studies/mc_mesh4_smoke.json",
      "--ledger", "smoke.ledger.json", "--cache-dir", "smoke_store",
      "--max-jobs", "1"], (3,)),
    (["study", "status", "smoke.ledger.json"], (0, 1)),
    (["study", "resume", "smoke.ledger.json", "--json"], (0,)),
    (["cache", "stats", "--cache-dir", "smoke_store"], (0,)),
    (["study", "run", "{root}/examples/studies/mc_mesh4_smoke.json",
      "--ledger", "chaos_smoke.ledger.json", "--cache-dir", "chaos_store",
      "--fault-plan", "{root}/examples/faultplans/smoke_torn_cache.json"],
     (4,)),
    (["study", "resume", "chaos_smoke.ledger.json", "--json"], (0,)),
    (["cache", "verify", "--cache-dir", "chaos_store"], (0,)),
)

Key = Tuple[str, str]  # (path relative to the root, qualname)


# ----------------------------------------------------------------------
# Inventory
# ----------------------------------------------------------------------
def _is_declaration(node: ast.AST) -> bool:
    """Body is only a docstring, ``...`` and/or ``raise NotImplementedError``:
    an interface or an abstract hook, not code."""
    def declares(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return stmt.value.value is Ellipsis or isinstance(
                stmt.value.value, str)
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
        return False

    return all(declares(stmt) for stmt in node.body)


def inventory() -> Dict[Tuple[str, int], Tuple[Key, int]]:
    """``(abs path, first line) -> ((rel path, qualname), def line)``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: Dict[Tuple[str, int], Tuple[Key, int]] = {}

    def visit(node: ast.AST, prefix: str, path: str, rel: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path, rel)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if not _is_declaration(child):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list
                    ])
                    found[(path, first)] = ((rel, qualname), child.lineno)
                visit(child, f"{qualname}.<locals>.", path, rel)
            else:
                visit(child, prefix, path, rel)

    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), path)
                visit(tree, "", path, os.path.relpath(path, ROOT))
    return found


# ----------------------------------------------------------------------
# The audited run
# ----------------------------------------------------------------------
def _run_smokes() -> List[str]:
    from repro.cli import main

    failures = []
    with tempfile.TemporaryDirectory(prefix="reach_audit_") as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for argv, expected in SMOKES:
                argv = [arg.format(root=ROOT) for arg in argv]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                if code not in expected:
                    failures.append(f"repro {' '.join(argv)}: exit {code}")
        finally:
            os.chdir(cwd)
    return failures


def audited_run() -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run tier-1 and the smokes under the hook.

    Returns the ``(abs path, first line)`` of every code object that ran,
    and a list of failures (tests or smokes).
    """
    import pytest

    seen: Set[object] = set()

    def hook(frame, event, arg, add=seen.add):
        # Every event's frame is a running Python frame, so recording it
        # unconditionally is correct and cheaper than testing the event.
        add(frame.f_code)

    failures: List[str] = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        code = pytest.main(["-p", "no:cacheprovider", "tests"])
        if code != 0:
            failures.append(f"tier-1 tests: pytest exit {int(code)}")
        failures += _run_smokes()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        os.chdir(cwd)
    reached = {
        (os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen
    }
    return reached, failures


# ----------------------------------------------------------------------
# The committed list
# ----------------------------------------------------------------------
def read_list(path: str) -> Dict[Key, str]:
    """``(rel path, qualname) -> note`` from a ``tools/unreached.txt``."""
    entries: Dict[Key, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            location, _, note = line.partition("  # ")
            where, qualname = location.split()
            entries[(where.rsplit(":", 1)[0], qualname)] = note.strip()
    return entries


def _line(key: Key, lineno: int, note: str) -> str:
    return f"{key[0]}:{lineno} {key[1]}  # {note}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help=f"compare with {os.path.relpath(LIST_PATH, ROOT)}")
    mode.add_argument("--write", action="store_true",
                      help="rewrite that list, keeping existing notes")
    args = parser.parse_args(argv)

    # As tier-1's own command does (ROADMAP.md), so that subprocesses
    # such as ``python -m repro`` import this checkout too.
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    defs = inventory()
    reached, failures = audited_run()
    never = sorted(
        (key, lineno) for where, (key, lineno) in defs.items()
        if (os.path.realpath(where[0]), where[1]) not in reached
    )
    listed = read_list(LIST_PATH) if os.path.exists(LIST_PATH) else {}
    print(f"{len(defs)} functions, {len(never)} never called", file=sys.stderr)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    if args.write:
        with open(LIST_PATH, "w", encoding="utf-8") as fh:
            fh.write("# src/repro functions that tier-1 and the fast-tier CI "
                     "smokes never call,\n# each with what reaches it "
                     "instead. Written by tools/reach_audit.py --write.\n")
            for key, lineno in never:
                fh.write(_line(key, lineno, listed.get(key, "?")) + "\n")
    elif args.check:
        never_keys = {key for key, _ in never}
        new = [(key, lineno) for key, lineno in never if key not in listed]
        now_reached = sorted(set(listed) - never_keys)
        report = []
        if new:
            report.append("Never called and not in tools/unreached.txt:")
            report += [f"- `{key[0]}:{lineno} {key[1]}`" for key, lineno in new]
        if now_reached:
            report.append("Listed in tools/unreached.txt but now reached "
                          "(or gone); drop them from the list:")
            report += [f"- `{where} {qualname}`"
                       for where, qualname in now_reached]
        text = "\n".join(report) or "Reach audit: tools/unreached.txt is exact."
        print(text)
        summary = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary:
            with open(summary, "a", encoding="utf-8") as fh:
                fh.write(text + "\n")
        if new and not failures:
            return 1
    else:
        for key, lineno in never:
            print(_line(key, lineno, listed.get(key, "?")))
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
