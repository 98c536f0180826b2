"""Run-time code modification (§3.5's second planned technology,
implemented).

"Second, we plan to develop a means for direct, code-level modification of
an executable, like the Linux kernel, at run-time.  A binary would be
augmented with its parse tree and compiler-level intermediate
representation (IR). ... New code could be inserted by using the existing
parse tree and symbol tables to convert it to IR, then compiling that IR
to binary code and modifying the appropriate sections of the program's
text segment."

In this reproduction a loaded module *is* its parse tree (the interpreter
executes the AST directly), so the mechanism the paper sketches becomes
concrete: :class:`HotPatcher` compiles replacement source against the
module's existing symbol table (its globals, other functions and struct
definitions stay visible), swaps it into the live program and, for a
KGCC module, instruments the new body there, its identifiers resolved
against the live program — the next call executes the new, checked
code.  Module state (globals, open resources) survives the patch,
which is the whole point of patching a running kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cminus import ast_nodes as ast
from repro.cminus.parser import _Parser
from repro.cminus.lexer import tokenize
from repro.cminus.resolve import bump_generation, resolve
from repro.errors import CMinusError
from repro.safety.kgcc.instrument import InstrumentationReport, _Instrumenter


@dataclass
class PatchRecord:
    """One applied patch, kept for rollback."""

    function: str
    old_def: ast.FuncDef
    new_def: ast.FuncDef
    generation: int
    checks_added: int = 0


class HotPatcher:
    """Patch functions of a live (possibly instrumented) program."""

    def __init__(self, program: ast.Program,
                 report: InstrumentationReport | None = None,
                 filename: str = "<hotpatch>"):
        self.program = program
        self.report = report
        self.filename = filename
        self.history: list[PatchRecord] = []
        self._generation = 0

    # ------------------------------------------------------------- patching

    def patch_function(self, name: str, new_source: str) -> PatchRecord:
        """Replace function ``name`` with the definition in ``new_source``.

        ``new_source`` contains exactly one function definition; it is
        parsed with the live program's struct table in scope, must keep the
        function's arity (callers are not rewritten), and — when the module
        was built with KGCC — is instrumented before insertion, so patched
        code is just as checked as compiled-in code.
        """
        old = self.program.funcs.get(name)
        if old is None:
            raise CMinusError(f"cannot patch unknown function '{name}'")
        new_def = self._parse_single_function(new_source, name)
        if len(new_def.params) != len(old.params):
            raise CMinusError(
                f"patch changes arity of '{name}' "
                f"({len(old.params)} -> {len(new_def.params)}); "
                f"callers would break")
        self._generation += 1
        record = PatchRecord(function=name, old_def=old, new_def=new_def,
                             generation=self._generation)
        self.program.funcs[name] = new_def
        # stale compiled code must never run the old body
        bump_generation(self.program)
        if self.report is not None:
            record.checks_added = self._instrument_patch(new_def)
        self.history.append(record)
        return record

    def rollback(self, record: PatchRecord | None = None) -> None:
        """Undo the given patch (default: the most recent one)."""
        if record is None:
            if not self.history:
                raise CMinusError("no patches to roll back")
            record = self.history[-1]
        if self.program.funcs.get(record.function) is not record.new_def:
            raise CMinusError(
                f"'{record.function}' was re-patched since; roll back the "
                f"newer patch first")
        self.program.funcs[record.function] = record.old_def
        bump_generation(self.program)
        self.history.remove(record)

    # ------------------------------------------------------------- internals

    def _parse_single_function(self, source: str, expected: str) -> ast.FuncDef:
        parser = _Parser(tokenize(source))
        # the live program's struct definitions stay in scope for the patch
        parser.structs = {tag: s for tag, s in self.program.structs.items()}
        sub = parser.parse_program()
        if expected not in sub.funcs:
            raise CMinusError(
                f"patch source does not define '{expected}' "
                f"(found: {sorted(sub.funcs) or 'nothing'})")
        if len(sub.funcs) != 1 or sub.globals:
            raise CMinusError(
                "a patch must contain exactly one function definition")
        return sub.funcs[expected]

    def _instrument_patch(self, new_def: ast.FuncDef) -> int:
        """Run the KGCC pass over the installed patch, its identifiers
        bound in the live program, merging the new check sites into the
        module's existing report."""
        resolve(self.program)
        report = _Instrumenter(f"{self.filename}:gen{self._generation}"
                               ).run([new_def])
        bump_generation(self.program)
        for site, nodes in report.sites.items():
            self.report.sites.setdefault(site, []).extend(nodes)
        self.report.checks_inserted += report.checks_inserted
        self.report.deref_checks += report.deref_checks
        self.report.arith_checks += report.arith_checks
        return report.checks_inserted
