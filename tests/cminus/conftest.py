"""Run each C-minus case on both engines and require they agree."""

from __future__ import annotations

from typing import Callable

import pytest

from repro.cminus import (CompiledEngine, ExecLimits, Interpreter,
                          UserMemAccess, parse)
from repro.errors import ReproError
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock


#: the op limit of a case that sets none: far above what any case
#: reaches, so an engine that loops forever fails the comparison instead
#: of hanging the suite
PARITY_MAX_OPS = 200_000


def _run_once(cls, source: str, fn: str, args: tuple, build: Callable):
    """One engine on a fresh kernel whose ``on_op_batch`` charges the clock:
    (result or exception, clock, ops_executed, engine)."""
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    mem = UserMemAccess(k, k.spawn("cminus"))
    program = parse(source)
    cminus_op = k.costs.cminus_op
    kwargs = build(k, mem, program)
    if kwargs.get("limits") is None:
        kwargs["limits"] = ExecLimits(max_ops=PARITY_MAX_OPS)
    engine = cls(program, mem,
                 on_op_batch=lambda n: k.clock.charge_system(n * cminus_op),
                 **kwargs)
    try:
        outcome = engine.call(fn, *args)
    except ReproError as exc:
        outcome = exc
    return outcome, k.clock.now, engine.ops_executed, engine


@pytest.fixture
def run_both() -> Callable:
    """``run_both(build, source, fn, *args)``: run the case on the
    tree-walker and on the compiled engine.  ``build(kernel, mem,
    program)`` returns each engine's extra keyword arguments.  The
    result or exception type, the clock and ``ops_executed`` must
    match, or the failure prints the Python the compiled engine ran;
    returns the result, or raises the tree-walker's exception."""

    def run(build: Callable, source: str, fn: str = "main", *args: int):
        tree = _run_once(Interpreter, source, fn, args, build)
        comp = _run_once(CompiledEngine, source, fn, args, build)
        kinds = [type(o) if isinstance(o, ReproError) else o
                 for o in (tree[0], comp[0])]
        generated = "\n".join(cf.source
                               for cf in comp[3]._compiled.funcs.values())
        assert kinds[0] == kinds[1], (tree[:3], comp[:3], generated)
        assert tree[1:3] == comp[1:3], (tree[:3], comp[:3], generated)
        if isinstance(tree[0], ReproError):
            raise tree[0]
        return tree[0]

    return run
