"""The KGCC runtime: what compiled-in checks call at run time.

Implements the interpreter's ``CheckRuntime`` and ``VarHooks`` protocols:

* ``on_decl`` / ``on_scope_exit`` — compiler-inserted registration of
  stack objects in the address map (and their removal at scope exit);
* ``check_deref`` — every load/store address must fall inside a live
  object; dereferencing an OOB peer or unknown address raises;
* ``check_arith`` — pointer arithmetic may leave an object's bounds, but
  then the result becomes an *OOB peer* of that object: further arithmetic
  is fine, dereferencing is not, and arithmetic that re-enters the object
  returns to normal (§3.4's out-of-bounds handling);
* heap externs — ``malloc``/``free`` for checked programs, with
  double-free and invalid-free detection (BCC's malloc/free checking).

Per-site execution counters feed dynamic deinstrumentation (§3.5).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.cminus.ctypes import ArrayType, CType
from repro.cminus.memaccess import MemoryAccess
from repro.errors import AllocatorMisuse, BoundsError, InvalidPointer
from repro.kernel.clock import Mode
from repro.safety.kgcc.addrmap import MemObject, ObjectMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class KgccRuntime:
    """One runtime instance per checked program execution context."""

    def __init__(self, kernel: "Kernel | None" = None, *,
                 mode: Mode = Mode.SYSTEM,
                 skip_names: set[str] | None = None):
        self.kernel = kernel
        self.mode = mode
        #: stack variables exempted from registration by the compiler's
        #: address-never-taken heuristic (InstrumentationReport.unregistered)
        self.skip_names = skip_names or set()
        self.map = ObjectMap(on_visit=self._charge_visits)
        # the map's containers (never reassigned): the checks consult them
        # directly, so each check is one splay lookup and one charge
        self._tree = self.map._tree
        self._oob = self.map._oob
        self.checks_executed = 0
        self.check_failures = 0
        self.site_counts: Counter = Counter()
        self._addr_registered: dict[int, int] = {}  # addr -> nesting count

    # --------------------------------------------------------------- costs

    def _charge_visits(self, nodes: int) -> None:
        if self.kernel is not None and nodes > 0:
            self.kernel.clock.charge(
                nodes * self.kernel.costs.kgcc_splay_node, self.mode)

    def _charge_check(self, visits: int = 0) -> None:
        """A check's whole cost in one charge: ``kgcc_check`` plus
        ``kgcc_splay_node`` per splay node its lookup touched."""
        kernel = self.kernel
        if kernel is not None:
            costs = kernel.costs
            kernel.clock.charge(
                costs.kgcc_check + visits * costs.kgcc_splay_node, self.mode)

    def _lookup_charged(self, addr: int) -> MemObject | None:
        """``ObjectMap.lookup`` for a check: the live object covering
        ``addr``, with the check and its splay visits charged together."""
        tree = self._tree
        before = tree.visits
        self.map.lookups += 1
        hit = tree.find_le(addr)
        self._charge_check(tree.visits - before)
        if hit is None:
            return None
        obj = hit[1]
        return obj if addr < obj.base + obj.size else None

    def _charge_register(self) -> None:
        if self.kernel is not None:
            self.kernel.clock.charge(self.kernel.costs.kgcc_register, self.mode)

    # ---------------------------------------------------------- VarHooks

    def on_decl(self, name: str, addr: int, ctype: CType, site: str) -> None:
        """Compiler-inserted registration of a stack object."""
        if name in self.skip_names:
            return  # the compiler proved this scalar needs no tracking
        self._charge_register()
        size = ctype.size if not isinstance(ctype, ArrayType) else ctype.size
        self.map.register(addr, max(size, 1), "stack", site)
        self._addr_registered[addr] = self._addr_registered.get(addr, 0) + 1

    def on_scope_exit(self, addrs: list[int]) -> None:
        for addr in addrs:
            nesting = self._addr_registered.get(addr, 0)
            if nesting <= 0:
                continue
            self._charge_register()
            self.map.unregister(addr)
            if nesting == 1:
                del self._addr_registered[addr]
            else:
                self._addr_registered[addr] = nesting - 1

    # ------------------------------------------------------- CheckRuntime

    def check_deref(self, addr: int, size: int, site: str) -> None:
        """Validate an about-to-happen access of ``size`` bytes at ``addr``."""
        self.checks_executed += 1
        self.site_counts[site] += 1
        oob = self._oob.get(addr)
        if oob is not None:
            self._charge_check()
            self.check_failures += 1
            raise BoundsError(
                addr, f"dereference of out-of-bounds pointer (peer of "
                      f"object at {oob.peer.base:#x})", site)
        obj = self._lookup_charged(addr)
        if obj is None:
            self.check_failures += 1
            raise InvalidPointer(addr)
        if addr + max(size, 1) > obj.end:
            self.check_failures += 1
            raise BoundsError(
                addr, f"access of {size} bytes overruns object "
                      f"[{obj.base:#x}, {obj.end:#x})", site)

    def check_index(self, base: int, addr: int, size: int, site: str) -> None:
        """Validate ``base[i]`` with intended-referent semantics: the access
        must stay within the object ``base`` points into — landing inside an
        *adjacent* object is still a violation (Jones & Kelly)."""
        self.checks_executed += 1
        self.site_counts[site] += 1
        oob = self._oob.get(base)
        if oob is not None:
            self._charge_check()
            self.check_failures += 1
            raise BoundsError(
                addr, f"indexing through out-of-bounds pointer (peer of "
                      f"object at {oob.peer.base:#x})", site)
        origin = self._lookup_charged(base)
        if origin is None:
            self.check_failures += 1
            raise InvalidPointer(base, "indexing an unknown pointer")
        if addr < origin.base or addr + max(size, 1) > origin.end:
            self.check_failures += 1
            raise BoundsError(
                addr, f"index access of {size} bytes escapes object "
                      f"[{origin.base:#x}, {origin.end:#x})", site)

    def check_arith(self, base: int, result: int, site: str) -> int:
        """Validate pointer arithmetic; may create or retire an OOB peer."""
        self.checks_executed += 1
        self.site_counts[site] += 1
        # Arithmetic starting from an existing OOB peer?
        src_oob = self._oob.get(base)
        if src_oob is not None:
            self._charge_check()
            origin: MemObject | None = src_oob.peer
        else:
            origin = self._lookup_charged(base)
        if origin is None:
            self.check_failures += 1
            raise InvalidPointer(
                base, "pointer arithmetic on an unknown pointer")
        # C blesses the one-past-the-end address; beyond that, a peer.
        if origin.base <= result <= origin.end:
            return result
        self.map.make_peer(result, origin, site)
        return result

    # --------------------------------------------------------- heap externs

    def make_externs(self, mem: MemoryAccess) -> dict:
        """The checked C runtime for instrumented programs.

        BCC checks not only pointer arithmetic but "string operations,
        memory copying, etc."; these are the checked library routines:
        ``malloc``/``free`` with registration and misuse detection, plus
        ``memcpy``/``memset``/``strcpy``/``strlen`` that validate their
        whole operand ranges against the address map before touching a
        byte.
        """

        def _require_range(addr: int, size: int, what: str) -> None:
            self.checks_executed += 1
            self._charge_check()
            obj = self.map.lookup(addr)
            if obj is None:
                self.check_failures += 1
                raise InvalidPointer(addr, f"{what} through unknown pointer")
            if addr + max(size, 0) > obj.end:
                self.check_failures += 1
                raise BoundsError(
                    addr, f"{what} of {size} bytes overruns object "
                          f"[{obj.base:#x}, {obj.end:#x})", what)

        def checked_malloc(size: int) -> int:
            if size <= 0:
                raise AllocatorMisuse(f"malloc({size})")
            addr = mem.malloc(size)
            self._charge_register()
            self.map.register(addr, size, "heap", "malloc")
            return addr

        def checked_free(addr: int) -> int:
            obj = self.map.lookup(addr)
            if obj is None or obj.base != addr or obj.kind != "heap":
                self.check_failures += 1
                raise AllocatorMisuse(
                    f"free of {addr:#x}, which is not a live heap object")
            self._charge_register()
            self.map.unregister(addr)
            mem.free(addr)
            return 0

        def checked_memcpy(dst: int, src: int, n: int) -> int:
            _require_range(src, n, "memcpy-src")
            _require_range(dst, n, "memcpy-dst")
            mem.write(dst, mem.read(src, n))
            return dst

        def checked_memset(dst: int, value: int, n: int) -> int:
            _require_range(dst, n, "memset")
            mem.write(dst, bytes([value & 0xFF]) * n)
            return dst

        def checked_strlen(addr: int) -> int:
            obj = self.map.lookup(addr)
            self.checks_executed += 1
            self._charge_check()
            if obj is None:
                self.check_failures += 1
                raise InvalidPointer(addr, "strlen through unknown pointer")
            n = 0
            while addr + n < obj.end:
                if mem.read(addr + n, 1) == b"\0":
                    return n
                n += 1
            self.check_failures += 1
            raise BoundsError(addr, "unterminated string reaches object end",
                              "strlen")

        def checked_strcpy(dst: int, src: int) -> int:
            n = checked_strlen(src)
            _require_range(dst, n + 1, "strcpy-dst")
            mem.write(dst, mem.read(src, n + 1))
            return dst

        return {"malloc": checked_malloc, "free": checked_free,
                "memcpy": checked_memcpy, "memset": checked_memset,
                "strlen": checked_strlen, "strcpy": checked_strcpy}
