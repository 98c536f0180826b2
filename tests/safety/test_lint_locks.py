"""The static lock-discipline linter (tools/lint_locks.py)."""

import importlib.util
import textwrap
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "lint_locks",
    Path(__file__).parents[2] / "tools" / "lint_locks.py")
lint_locks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint_locks)


def _lint(tmp_path, source, rel="mod.py"):
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_locks.lint(tmp_path)


def test_bare_lock_unlock_flagged(tmp_path):
    problems = _lint(tmp_path, """
        def f(lk):
            lk.lock("site")
            do_work()
            lk.unlock("site")
    """)
    assert len(problems) == 2
    assert "lk.lock()" in problems[0] and "use .guard()" in problems[0]
    assert "lk.unlock()" in problems[1]


def test_bare_semaphore_down_up_flagged(tmp_path):
    problems = _lint(tmp_path, """
        def f(sem):
            sem.down("site")
            sem.up("site")
    """)
    assert len(problems) == 2


def test_guard_is_clean(tmp_path):
    assert _lint(tmp_path, """
        def f(lk, sem):
            with lk.guard("site"):
                with sem.guard("site"):
                    do_work()
    """) == []


def test_try_finally_is_clean(tmp_path):
    assert _lint(tmp_path, """
        def f(lk):
            lk.lock("site")
            try:
                do_work()
            finally:
                lk.unlock("site")
    """) == []


def test_try_finally_releasing_wrong_receiver_flagged(tmp_path):
    problems = _lint(tmp_path, """
        def f(a, b):
            a.lock("site")
            try:
                do_work()
            finally:
                b.unlock("site")
    """)
    assert any("a.lock()" in p for p in problems)


def test_acquire_not_directly_before_try_flagged(tmp_path):
    problems = _lint(tmp_path, """
        def f(lk):
            lk.lock("site")
            do_work()
            try:
                more()
            finally:
                lk.unlock("site")
    """)
    assert any("lk.lock()" in p for p in problems)


def test_bare_irq_disable_enable_flagged(tmp_path):
    problems = _lint(tmp_path, """
        def f(irq):
            irq.local_irq_disable("site")
            do_work()
            irq.local_irq_enable("site")
    """)
    assert len(problems) == 2
    assert "irq.local_irq_disable()" in problems[0]
    assert "use .irqs_off() or lock.irqsave()" in problems[0]
    assert "irq.local_irq_enable()" in problems[1]


def test_irq_context_managers_and_try_finally_are_clean(tmp_path):
    assert _lint(tmp_path, """
        def f(kernel, lk):
            with lk.irqsave("site"):
                do_work()
            with kernel.irq.irqs_off("site"):
                do_work()
            kernel.irq.local_irq_disable("site")
            try:
                do_work()
            finally:
                kernel.irq.local_irq_enable("site")
    """) == []


def test_irq_try_finally_enabling_wrong_receiver_flagged(tmp_path):
    problems = _lint(tmp_path, """
        def f(a, b):
            a.local_irq_disable("site")
            try:
                do_work()
            finally:
                b.local_irq_enable("site")
    """)
    assert any("a.local_irq_disable()" in p for p in problems)


def test_unrelated_methods_ignored(tmp_path):
    assert _lint(tmp_path, """
        def f(widget):
            widget.unlock_door()
            widget.lockdown()
            x = widget.lock  # attribute access, not a call
    """) == []


def test_allowlisted_file_skipped(tmp_path):
    for rel in ("kernel/locks.py", "kernel/interrupts.py"):
        assert _lint(tmp_path, """
            def f(lk, irq):
                lk.lock("site")
                irq.local_irq_disable("site")
        """, rel=rel) == []


def test_real_tree_is_clean():
    root = Path(__file__).parents[2] / "src" / "repro"
    assert lint_locks.lint(root) == []
