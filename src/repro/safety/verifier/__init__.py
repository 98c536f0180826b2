"""Load-time static verifier for user kernel code (eBPF-style).

The paper leaves every safety decision to runtime: KGCC's checks execute
on each access (§3.4) and Cosy's trust manager *learns* trust from 100
clean runs under full isolation (§2.4).  Modern kernel runtimes (eBPF)
instead prove user code safe *before* it executes in the kernel, at module
load time.  This package is that verifier for the C-minus toolchain:

* :mod:`cfg` — a control-flow graph over the C-minus AST (basic blocks,
  edges, loop headers);
* :mod:`intervals` — an integer value-range domain with widening at loop
  heads;
* :mod:`provenance` — a pointer-provenance domain: which object each
  pointer derives from (local array, parameter, ``malloc`` result, string
  literal) plus byte-offset ranges;
* :mod:`initcheck` — a definite-initialization dataflow pass;
* :mod:`termination` — a bounded-loop/termination check for Cosy regions;
* :mod:`verify` — the abstract-interpretation driver that combines the
  domains and emits per-function verdicts.

Every analysis identifies variables by the scope resolver's bindings
(:mod:`repro.cminus.resolve`), never by name: the abstract state, the
init facts and the loop proofs are keyed by binding, a variable's region
is its declaration's storage, and a variable changes behind the
analysis's back only when its binding's address is taken.

Each function gets a :class:`~repro.safety.verifier.verify.Verdict`:
``PROVEN_SAFE`` (every dereference, index, and pointer-arithmetic site is
proven in-bounds — its runtime checks can be dropped), ``NEEDS_CHECKS``
(with the per-site list of unprovable accesses), or ``REJECT`` (a proven
out-of-bounds access, a dereference of a definitely-uninitialized pointer,
or — when termination is required — an unbounded loop).  Every verdict
carries a human-readable reason per site.

Consumers:

* KGCC's :func:`repro.safety.kgcc.optimize.optimize` and
  :func:`repro.safety.kgcc.selective.apply_rules` drop runtime checks at
  verifier-proven sites;
* Cosy's :class:`~repro.core.cosy.kernel_ext.CosyKernelExtension` refuses
  to load ``REJECT`` functions and starts ``PROVEN_SAFE`` ones at
  ``DATA_ONLY`` without the 100-run warmup;
* :func:`repro.analysis.report.verifier_section` renders the verdict
  histogram and the static/dynamic check-elimination breakdown.
"""

from repro.safety.verifier.cfg import BasicBlock, CFG, build_cfg
from repro.safety.verifier.intervals import Interval
from repro.safety.verifier.provenance import PointerValue, Region
from repro.safety.verifier.initcheck import InitState, definite_init
from repro.safety.verifier.termination import LoopBound, check_termination
from repro.safety.verifier.verify import (FunctionVerdict, LoadTimeVerifier,
                                          SiteFinding, SiteStatus, Verdict,
                                          VerifierReport, verify_program)

__all__ = [
    "BasicBlock", "CFG", "build_cfg",
    "Interval",
    "PointerValue", "Region",
    "InitState", "definite_init",
    "LoopBound", "check_termination",
    "FunctionVerdict", "LoadTimeVerifier", "SiteFinding", "SiteStatus",
    "Verdict", "VerifierReport", "verify_program",
]
