"""cminus: a small C-subset toolchain.

The paper builds two compiler-based systems: Cosy-GCC (§2.3), which
extracts marked code regions and compiles them into compound operations,
and KGCC (§3.4), which instruments pointer operations with bounds checks.
Both need real C programs to operate on, so this package provides a
lexer → parser → AST → tree-walking interpreter for a C subset:

* types: ``char`` (1 byte), ``int``/``long`` (8 bytes), pointers, 1-D
  arrays, ``void``;
* statements: declarations with initializers, ``if``/``else``, ``while``,
  ``for``, ``return``, ``break``, ``continue``, blocks, expression
  statements;
* expressions: full C operator set minus the conditional operator, with
  C pointer-arithmetic scaling, ``&``/``*``, indexing, ``sizeof``, calls;
* functions, string literals, and externs (host-provided functions, used
  for syscall shims and the KGCC runtime).

Programs execute against *simulated* memory through a
:class:`~repro.cminus.memaccess.MemoryAccess`, so pointers are real
simulated addresses: Kefence guard pages fault on them, segment limits
confine them, and KGCC's splay-tree map tracks them.  The scope resolver
(:mod:`repro.cminus.resolve`) binds every name to its declaration once;
an integer local or parameter whose address is never taken is a
*register* and lives outside simulated memory, in both engines.
"""

from repro.cminus.lexer import tokenize, Token, TokenKind
from repro.cminus.ctypes import (CType, VoidType, IntType, PointerType,
                                 ArrayType, CHAR, INT, LONG, VOID)
from repro.cminus import ast_nodes as ast
from repro.cminus.parser import parse
from repro.cminus.memaccess import MemoryAccess, UserMemAccess, SegmentMemAccess
from repro.cminus.interp import Interpreter, ExecLimits
from repro.cminus.compile import (CodeCache, CompiledEngine, CompiledProgram,
                                  bump_generation, compile_program,
                                  generation_of, program_fingerprint)

__all__ = [
    "tokenize", "Token", "TokenKind",
    "CType", "VoidType", "IntType", "PointerType", "ArrayType",
    "CHAR", "INT", "LONG", "VOID",
    "ast", "parse",
    "MemoryAccess", "UserMemAccess", "SegmentMemAccess",
    "Interpreter", "ExecLimits",
    "CodeCache", "CompiledEngine", "CompiledProgram",
    "compile_program", "generation_of", "bump_generation",
    "program_fingerprint",
]
