#!/usr/bin/env python3
"""Lint for exception-safe locking in src/repro.

A bare ``lk.lock()`` / ``sem.down()`` with the matching release written as
a later statement leaks the lock on any exception in between — the bug
class the guard() context managers exist to prevent, and one lockdep can
only see at run time if the exception path actually fires.  Interrupts
are the same kind of resource: a bare ``irq.local_irq_disable()`` leaves
the CPU's interrupts off on the exception path, which the §3.3 monitors
report as an unmatched disable.  This linter enforces the discipline
statically: every acquire/release of a kernel lock must go through
``guard()``, and every IRQ disable/enable through ``irqs_off()`` or
``lock.irqsave()`` — or through a try/finally that releases the same
receiver — except at explicitly allowlisted sites.

Usage: ``python tools/lint_locks.py [root]`` (default: ``src/repro``).
Exit status 1 if any violation is found; run by the CI lint job.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: acquire method -> the release that must pair with it
ACQUIRE = {"lock": "unlock", "down": "up",
           "local_irq_disable": "local_irq_enable"}
#: release method -> the context manager that pairs it exception-safely
USE = {"unlock": ".guard()", "up": ".guard()",
       "local_irq_enable": ".irqs_off() or lock.irqsave()"}

#: sites where bare calls are the point (paths relative to the scan root)
ALLOWLIST = {
    # the guard()/irqsave()/irqs_off() context managers themselves:
    # acquire in __enter__, release in __exit__ — the primitives
    # everything else must use
    "kernel/locks.py",
    "kernel/interrupts.py",
    # deliberately *wrong* locking patterns the validator must catch
    "safety/lockdep/selftest.py",
}


def _receiver(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return ast.unparse(call.func.value)
    return None


def _method(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _releases(finalbody: list[ast.stmt], receiver: str,
              release: str) -> bool:
    """Does the finally block call ``receiver.release(...)``?"""
    for stmt in finalbody:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _method(node) == release \
                    and _receiver(node) == receiver:
                return True
    return False


def _statement_lists(tree: ast.Module):
    """Yield every statement list in the tree, tagging finally blocks."""
    for node in ast.walk(tree):
        for field in ("body", "orelse"):
            sub = getattr(node, field, None)
            if isinstance(sub, list) and sub \
                    and isinstance(sub[0], ast.stmt):
                yield sub, False
        for handler in getattr(node, "handlers", None) or []:
            yield handler.body, False
        finalbody = getattr(node, "finalbody", None)
        if finalbody:
            yield finalbody, True


def _check_body(body: list[ast.stmt], path: str,
                problems: list[str]) -> None:
    for i, stmt in enumerate(body):
        # Only statement-level calls: nested blocks (with/if/for bodies)
        # are visited as their own statement lists by _statement_lists.
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            continue
        call = stmt.value
        method = _method(call)
        if method in ACQUIRE:
            receiver = _receiver(call)
            # Exception-safe iff the very next statement is a try whose
            # finally releases the same receiver.
            nxt = body[i + 1] if i + 1 < len(body) else None
            safe = (isinstance(nxt, ast.Try) and receiver is not None
                    and _releases(nxt.finalbody, receiver,
                                  ACQUIRE[method]))
            if not safe:
                problems.append(
                    f"{path}:{call.lineno}: bare {receiver}.{method}() "
                    f"without a try/finally {ACQUIRE[method]}() — "
                    f"use {USE[ACQUIRE[method]]}")
        elif method in USE:
            problems.append(
                f"{path}:{call.lineno}: bare {_receiver(call)}."
                f"{method}() outside a finally block — use {USE[method]}")


def lint(root: Path) -> list[str]:
    problems: list[str] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in ALLOWLIST:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for body, is_finally in _statement_lists(tree):
            if is_finally:
                continue  # releases in finally are the sanctioned pattern
            _check_body(body, rel, problems)
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/repro")
    if not root.is_dir():
        print(f"lint_locks: no such directory: {root}", file=sys.stderr)
        return 2
    problems = lint(root)
    for problem in problems:
        print(problem)
    print(f"lint_locks: {len(problems)} problem(s) in {root}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
