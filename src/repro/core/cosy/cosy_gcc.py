"""Cosy-GCC: compile a marked C region into a compound (§2.3).

"Users need to identify the bottleneck code segments and mark them with the
Cosy specific constructs COSY_START and COSY_END.  This marked code is
parsed and the statements within the delimiters are encoded into the Cosy
language."

The markers are written as ordinary calls so the source stays valid C::

    int main() {
        int fd;
        COSY_START();
        fd = open("/data", 0);
        char buf[4096];
        int n = read(fd, buf, 4096);
        close(fd);
        COSY_END();
        return n;
    }

What Cosy-GCC does, mirroring the paper:

* **dependency resolution** — "resolves dependencies among parameters of
  the Cosy operations": variables become compound *slots*, so the fd
  produced by ``open`` flows into ``read`` with no user-level round trip;
* **zero-copy identification** — region-local ``char`` arrays and string
  literals are placed in the *shared buffer*; a buffer filled by ``read``
  and passed to ``write`` is the same shared bytes, never copied;
* **language subset** — "we limited Cosy to the execution of only a subset
  of C in the kernel"; anything outside the subset raises
  :class:`UnsupportedConstruct` (int arithmetic, loops, conditionals,
  the syscalls the kernel extension can run — its
  :data:`~repro.core.cosy.kernel_ext.COMPOUND_SYSCALLS` — and calls to
  local helper functions are in; pointers beyond buffer references are
  out — helpers that need them run as isolated user functions via CALLF
  instead);
* **inputs** — variables defined before the region are bound at run time
  by Cosy-Lib into reserved prologue MOV ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cminus import ast_nodes as ast
from repro.cminus.compile import program_fingerprint
from repro.cminus.ctypes import ArrayType, PointerType
from repro.cminus.parser import parse
from repro.core.cosy.compound import CompoundBuilder, encode_compound
from repro.core.cosy.kernel_ext import COMPOUND_SYSCALLS
from repro.core.cosy.ops import Arg, MATH_OPS, Op
from repro.errors import CosyError

RETURN_SLOT_NAME = "__return"


class UnsupportedConstruct(CosyError):
    """The marked region uses something outside the Cosy C subset."""


@dataclass
class CompiledRegion:
    """Output of Cosy-GCC for one marked region."""

    ops: list[Op]
    nslots: int
    slot_map: dict[str, int]                 # variable -> slot
    input_prologue: dict[str, int]           # input variable -> prologue op idx
    shared_layout: dict[str, tuple[int, int]]  # buffer var -> (offset, size)
    shared_literals: list[tuple[int, bytes]]   # (offset, bytes) to pre-place
    shared_size: int
    functions: dict[str, ast.Program] = field(default_factory=dict)
    #: helper function -> structural fingerprint of its program (the first
    #: half of the code cache key; correlates cache entries to regions)
    fingerprints: dict[str, str] = field(default_factory=dict)
    source_name: str = "<cosy>"

    def encode(self, inputs: dict[str, int] | None = None) -> bytes:
        """Bind input values into the prologue and serialize the compound."""
        inputs = inputs or {}
        unknown = set(inputs) - set(self.input_prologue)
        if unknown:
            raise CosyError(f"unknown compound inputs: {sorted(unknown)}")
        missing = set(self.input_prologue) - set(inputs)
        if missing:
            raise CosyError(f"unbound compound inputs: {sorted(missing)}")
        ops = list(self.ops)
        for name, idx in self.input_prologue.items():
            old = ops[idx]
            ops[idx] = Op(old.opcode, old.dst, old.extra,
                          (Arg.lit(int(inputs[name])),))
        return encode_compound(ops, self.nslots)


class CosyGCC:
    """The compiler.  Stateless; ``compile()`` may be called repeatedly."""

    def compile(self, source: str, func: str = "main", *,
                require_bounded_loops: bool = False) -> CompiledRegion:
        """Compile the marked region of ``func``.

        With ``require_bounded_loops=True`` the region is refused (with
        :class:`~repro.errors.VerifierReject`) unless every loop in it has
        a provable bound — the eBPF-style alternative to relying on the
        run-time watchdog (see :mod:`repro.safety.verifier.termination`).
        """
        program = parse(source)
        fdef = program.funcs.get(func)
        if fdef is None:
            raise CosyError(f"function '{func}' not found")
        region = self._extract_region(fdef)
        if require_bounded_loops:
            self._check_bounded(func, region)
        return _RegionCompiler(program, fdef, region).compile()

    @staticmethod
    def _check_bounded(func: str, region: list[ast.Stmt]) -> None:
        from repro.safety.verifier.termination import check_termination
        bounds = check_termination(ast.Block(stmts=list(region), line=0))
        unbounded = [b for b in bounds if not b.bounded]
        if unbounded:
            from repro.errors import VerifierReject
            raise VerifierReject(func, [
                f"line {b.line}: loop bound not provable: {b.reason}"
                for b in unbounded])

    @staticmethod
    def _extract_region(fdef: ast.FuncDef) -> list[ast.Stmt]:
        start = end = None
        for i, stmt in enumerate(fdef.body.stmts):
            if (isinstance(stmt, ast.ExprStmt)
                    and isinstance(stmt.expr, ast.Call)):
                if stmt.expr.func == "COSY_START":
                    if start is not None:
                        raise CosyError("nested COSY_START")
                    start = i
                elif stmt.expr.func == "COSY_END":
                    if start is None:
                        raise CosyError("COSY_END before COSY_START")
                    end = i
                    break
        if start is None or end is None:
            raise CosyError("function has no COSY_START/COSY_END region")
        return fdef.body.stmts[start + 1:end]


class _RegionCompiler:
    def __init__(self, program: ast.Program, fdef: ast.FuncDef,
                 region: list[ast.Stmt]):
        self.program = program
        self.fdef = fdef
        self.region = region
        self.builder = CompoundBuilder()
        self.shared_layout: dict[str, tuple[int, int]] = {}
        self.shared_literals: list[tuple[int, bytes]] = []
        self._shared_cursor = 0
        self._literal_offsets: dict[str, int] = {}
        self.input_prologue: dict[str, int] = {}
        self.functions: dict[str, ast.Program] = {}
        self._declared: set[str] = set()
        #: (continue target, break target) per enclosing loop
        self._loop_stack: list[tuple] = []

    # -------------------------------------------------------------- helpers

    def _shared_alloc(self, size: int) -> int:
        offset = (self._shared_cursor + 7) & ~7
        self._shared_cursor = offset + size
        return offset

    def _place_literal(self, text: str) -> tuple[int, int]:
        """Place a NUL-terminated string in the shared buffer (deduplicated)."""
        if text in self._literal_offsets:
            offset = self._literal_offsets[text]
        else:
            raw = text.encode() + b"\0"
            offset = self._shared_alloc(len(raw))
            self.shared_literals.append((offset, raw))
            self._literal_offsets[text] = offset
        return offset, len(text.encode())

    def _is_syscall(self, name: str) -> bool:
        return name in COMPOUND_SYSCALLS

    def _is_local_func(self, name: str) -> bool:
        return name in self.program.funcs and name != self.fdef.name

    # ---------------------------------------------------- input discovery

    def _collect_inputs(self) -> None:
        """Variables read in the region but declared outside become inputs,
        bound via reserved prologue MOV ops (filled by Cosy-Lib)."""
        declared_in_region = {
            s.name for s in self.region if isinstance(s, ast.VarDecl)
        }
        # include loop-scope decls
        for stmt in self.region:
            for node in ast.walk(stmt):
                if isinstance(node, ast.VarDecl):
                    declared_in_region.add(node.name)
        used: list[str] = []
        seen: set[str] = set()
        for stmt in self.region:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Ident) and node.name not in seen:
                    seen.add(node.name)
                    if (node.name not in declared_in_region
                            and not self._is_syscall(node.name)
                            and not self._is_local_func(node.name)):
                        used.append(node.name)
        for name in used:
            slot = self.builder.slot(name)
            idx = self.builder.mov(slot, Arg.lit(0))  # placeholder
            self.input_prologue[name] = idx

    # --------------------------------------------------------------- driver

    def compile(self) -> CompiledRegion:
        self._collect_inputs()
        ret_slot = self.builder.slot(RETURN_SLOT_NAME)
        self.builder.mov(ret_slot, Arg.lit(0))
        self._end_label = self.builder.label("region_end")
        for stmt in self.region:
            self._compile_stmt(stmt)
        self.builder.place(self._end_label)
        # encode() resolves label fixups in place and appends the final END;
        # the resolved op list is what CompiledRegion carries.
        self.builder.encode()
        ops = list(self.builder.ops)
        return CompiledRegion(
            ops=ops,
            nslots=self.builder.nslots,
            slot_map=self.builder.slot_names,
            input_prologue=dict(self.input_prologue),
            shared_layout=dict(self.shared_layout),
            shared_literals=list(self.shared_literals),
            shared_size=max(self._shared_cursor, 8),
            functions=dict(self.functions),
            fingerprints={name: program_fingerprint(prog)
                          for name, prog in self.functions.items()},
        )

    # ------------------------------------------------------------ statements

    def _compile_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._compile_vardecl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._compile_expr(stmt.expr)
        elif isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._compile_stmt(s)
        elif isinstance(stmt, ast.If):
            self._compile_if(stmt)
        elif isinstance(stmt, ast.While):
            self._compile_while(stmt)
        elif isinstance(stmt, ast.For):
            self._compile_for(stmt)
        elif isinstance(stmt, ast.Return):
            ret = self.builder.slot(RETURN_SLOT_NAME)
            if stmt.value is not None:
                arg = self._compile_expr(stmt.value)
                self.builder.mov(ret, arg)
            self.builder.jmp(self._end_label)
        elif isinstance(stmt, ast.Break):
            if not self._loop_stack:
                raise UnsupportedConstruct(f"break outside loop (line {stmt.line})")
            self.builder.jmp(self._loop_stack[-1][1])
        elif isinstance(stmt, ast.Continue):
            if not self._loop_stack:
                raise UnsupportedConstruct(
                    f"continue outside loop (line {stmt.line})")
            self.builder.jmp(self._loop_stack[-1][0])
        else:
            raise UnsupportedConstruct(
                f"statement {type(stmt).__name__} (line {stmt.line}) is "
                f"outside the Cosy subset")

    def _compile_vardecl(self, decl: ast.VarDecl) -> None:
        self._declared.add(decl.name)
        if isinstance(decl.ctype, ArrayType):
            if decl.ctype.elem.size != 1:
                raise UnsupportedConstruct(
                    f"only char buffers may live in the shared buffer "
                    f"(line {decl.line})")
            offset = self._shared_alloc(decl.ctype.length)
            self.shared_layout[decl.name] = (offset, decl.ctype.length)
            return
        if isinstance(decl.ctype, PointerType):
            raise UnsupportedConstruct(
                f"pointer variables are outside the Cosy subset "
                f"(line {decl.line}); use a helper function instead")
        slot = self.builder.slot(decl.name)
        if decl.init is not None:
            arg = self._compile_expr(decl.init)
            self.builder.mov(slot, arg)
        else:
            self.builder.mov(slot, Arg.lit(0))

    def _compile_if(self, stmt: ast.If) -> None:
        cond = self._compile_expr(stmt.cond)
        else_label = self.builder.label()
        self.builder.jz(cond, else_label)
        self._compile_stmt(stmt.then)
        if stmt.orelse is not None:
            end_label = self.builder.label()
            self.builder.jmp(end_label)
            self.builder.place(else_label)
            self._compile_stmt(stmt.orelse)
            self.builder.place(end_label)
        else:
            self.builder.place(else_label)

    def _compile_while(self, stmt: ast.While) -> None:
        top = self.builder.label()
        exit_label = self.builder.label()
        self.builder.place(top)
        cond = self._compile_expr(stmt.cond)
        self.builder.jz(cond, exit_label)
        self._loop_stack.append((top, exit_label))
        try:
            self._compile_stmt(stmt.body)
        finally:
            self._loop_stack.pop()
        self.builder.jmp(top)
        self.builder.place(exit_label)

    def _compile_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._compile_stmt(stmt.init)
        top = self.builder.label()
        step_label = self.builder.label()
        exit_label = self.builder.label()
        self.builder.place(top)
        if stmt.cond is not None:
            cond = self._compile_expr(stmt.cond)
            self.builder.jz(cond, exit_label)
        self._loop_stack.append((step_label, exit_label))
        try:
            self._compile_stmt(stmt.body)
        finally:
            self._loop_stack.pop()
        self.builder.place(step_label)
        if stmt.step is not None:
            self._compile_expr(stmt.step)
        self.builder.jmp(top)
        self.builder.place(exit_label)

    # ----------------------------------------------------------- expressions

    def _compile_expr(self, expr: ast.Expr) -> Arg:
        if isinstance(expr, ast.IntLit):
            return Arg.lit(expr.value)
        if isinstance(expr, ast.StrLit):
            offset, length = self._place_literal(expr.value)
            return Arg.shared(offset, length)
        if isinstance(expr, ast.Ident):
            shared = self.shared_layout.get(expr.name)
            if shared is not None:
                return Arg.shared(*shared)
            return Arg.slot(self.builder.slot(expr.name))
        if isinstance(expr, ast.Assign):
            return self._compile_assign(expr)
        if isinstance(expr, ast.BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, ast.UnOp):
            return self._compile_unop(expr)
        if isinstance(expr, ast.PostIncDec):
            return self._compile_incdec(expr)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr)
        raise UnsupportedConstruct(
            f"expression {type(expr).__name__} (line {expr.line}) is outside "
            f"the Cosy subset")

    def _compile_assign(self, expr: ast.Assign) -> Arg:
        if not isinstance(expr.target, ast.Ident):
            raise UnsupportedConstruct(
                f"only simple variables may be assigned in a compound "
                f"(line {expr.line})")
        if expr.target.name in self.shared_layout:
            raise UnsupportedConstruct(
                f"cannot assign to buffer '{expr.target.name}' "
                f"(line {expr.line})")
        slot = self.builder.slot(expr.target.name)
        value = self._compile_expr(expr.value)
        if expr.op:
            self.builder.math(expr.op, slot, Arg.slot(slot), value)
        else:
            self.builder.mov(slot, value)
        return Arg.slot(slot)

    def _compile_binop(self, expr: ast.BinOp) -> Arg:
        if expr.op not in MATH_OPS:
            raise UnsupportedConstruct(f"operator '{expr.op}' in compound")
        a = self._compile_expr(expr.left)
        b = self._compile_expr(expr.right)
        dst = self.builder.temp_slot()
        self.builder.math(expr.op, dst, a, b)
        return Arg.slot(dst)

    def _compile_unop(self, expr: ast.UnOp) -> Arg:
        if expr.op == "-":
            inner = self._compile_expr(expr.operand)
            dst = self.builder.temp_slot()
            self.builder.math("-", dst, Arg.lit(0), inner)
            return Arg.slot(dst)
        if expr.op == "!":
            inner = self._compile_expr(expr.operand)
            dst = self.builder.temp_slot()
            self.builder.math("==", dst, inner, Arg.lit(0))
            return Arg.slot(dst)
        if expr.op in ("++", "--") and isinstance(expr.operand, ast.Ident):
            slot = self.builder.slot(expr.operand.name)
            self.builder.math("+" if expr.op == "++" else "-", slot,
                              Arg.slot(slot), Arg.lit(1))
            return Arg.slot(slot)
        raise UnsupportedConstruct(f"unary '{expr.op}' in compound")

    def _compile_incdec(self, expr: ast.PostIncDec) -> Arg:
        if not isinstance(expr.target, ast.Ident):
            raise UnsupportedConstruct("++/-- target must be a variable")
        slot = self.builder.slot(expr.target.name)
        old = self.builder.temp_slot()
        self.builder.mov(old, Arg.slot(slot))
        self.builder.math("+" if expr.op == "++" else "-", slot,
                          Arg.slot(slot), Arg.lit(1))
        return Arg.slot(old)

    def _compile_call(self, expr: ast.Call) -> Arg:
        args = [self._compile_expr(a) for a in expr.args]
        dst = self.builder.temp_slot()
        if self._is_syscall(expr.func):
            self.builder.syscall(expr.func, *args, out=dst)
            return Arg.slot(dst)
        if self._is_local_func(expr.func):
            # Helper functions execute as isolated user functions (CALLF).
            self.functions.setdefault(expr.func, self.program)
            # func id is assigned at registration time; record name in extra
            # via a placeholder resolved by Cosy-Lib.
            idx = self.builder.callf(0, *args, out=dst)
            self.builder.ops[idx] = _TaggedCallf(
                self.builder.ops[idx], expr.func)
            return Arg.slot(dst)
        raise UnsupportedConstruct(
            f"call to '{expr.func}' (line {expr.line}) is neither a compound "
            f"syscall nor a local function")


class _TaggedCallf(Op):
    """A CALLF op annotated with its target function name; Cosy-Lib rewrites
    ``extra`` to the kernel-assigned function id before encoding."""

    def __new__(cls, op: Op, func_name: str):
        self = super().__new__(cls)
        return self

    def __init__(self, op: Op, func_name: str):
        object.__setattr__(self, "opcode", op.opcode)
        object.__setattr__(self, "dst", op.dst)
        object.__setattr__(self, "extra", op.extra)
        object.__setattr__(self, "args", op.args)
        object.__setattr__(self, "func_name", func_name)
