"""KGCC: compiler-assisted runtime bounds checking (§3.4).

Derived from Jones & Kelly's Bounds-Checking GCC (BCC), extended as the
paper describes:

* the runtime keeps "a map of currently allocated memory in a splay tree;
  the tree is consulted before any memory operation"
  (:mod:`splay`, :mod:`addrmap`);
* temporary out-of-bounds pointers are handled with **peer objects**: an
  OOB marker object remembers which real object the pointer strayed from,
  arithmetic on it is legal, dereferencing it is not (:mod:`addrmap`);
* the instrumentation pass inserts checks around pointer arithmetic and
  dereferences (:mod:`instrument`), and optimization passes remove the
  redundant ones — unescaped-stack-object elimination and
  common-subexpression elimination, which the paper credits with removing
  more than half of the checks (:mod:`optimize`);
* dynamic deinstrumentation disables check sites that have executed safely
  enough times (:mod:`deinstrument` — §3.5's planned technique,
  implemented).
"""

from repro.safety.kgcc.splay import SplayTree
from repro.safety.kgcc.addrmap import MemObject, OOBObject, ObjectMap
from repro.safety.kgcc.runtime import KgccRuntime
from repro.safety.kgcc.instrument import instrument, InstrumentationReport
from repro.safety.kgcc.optimize import (const_fold,
                                        eliminate_safe_static_checks,
                                        eliminate_common_checks,
                                        eliminate_verified_checks, optimize,
                                        OptimizeReport)
from repro.safety.kgcc.deinstrument import DynamicDeinstrumenter
from repro.safety.kgcc.selective import Rule, SelectiveReport, apply_rules
from repro.safety.kgcc.modulefs import KgccFsSuperBlock
from repro.safety.kgcc.hotpatch import HotPatcher, PatchRecord

__all__ = [
    "SplayTree", "MemObject", "OOBObject", "ObjectMap", "KgccRuntime",
    "instrument", "InstrumentationReport",
    "const_fold", "eliminate_safe_static_checks", "eliminate_common_checks",
    "eliminate_verified_checks", "optimize",
    "OptimizeReport", "DynamicDeinstrumenter",
    "Rule", "SelectiveReport", "apply_rules", "KgccFsSuperBlock",
    "HotPatcher", "PatchRecord",
]
