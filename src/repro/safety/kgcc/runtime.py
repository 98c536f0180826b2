"""The KGCC runtime: what compiled-in checks call at run time.

Implements the interpreter's ``CheckRuntime`` and ``VarHooks`` protocols:

* ``on_decl`` / ``on_scope_exit`` — compiler-inserted registration of
  stack objects in the address map (and their removal at scope exit).
  :func:`registered` decides from the variable's binding which ones: the
  engines keep registers out of memory, and a struct whose address never
  escapes needs no entry either;
* ``check_deref`` — every load/store address must fall inside a live
  object; dereferencing an OOB peer or unknown address raises;
* ``check_arith`` — pointer arithmetic may leave an object's bounds, but
  then the result becomes an *OOB peer* of that object: further arithmetic
  is fine, dereferencing is not, and arithmetic that re-enters the object
  returns to normal (§3.4's out-of-bounds handling).  A one-past-the-end
  result is remembered, so arithmetic from it back into its object stays
  valid even where the next object starts;
* heap externs — ``malloc``/``free`` for checked programs, with
  double-free and invalid-free detection (BCC's malloc/free checking).

Per-site execution counters feed dynamic deinstrumentation (§3.5).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.cminus.ctypes import ArrayType
from repro.cminus.memaccess import MemoryAccess
from repro.cminus.resolve import Binding
from repro.errors import AllocatorMisuse, BoundsError, InvalidPointer
from repro.kernel.clock import Mode
from repro.safety.kgcc.addrmap import MemObject, ObjectMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


def registered(binding: Binding) -> bool:
    """Whether KGCC registers the variable in its address map: every
    global and array, and every object whose address is taken or that
    is passed to a call.  "KGCC does not check stack objects whose
    addresses are not taken" (§3.4, Jones & Kelly's rule): an integer or
    pointer local or parameter whose address is never taken is a
    register, with no storage at all."""
    return not binding.register and (
        binding.kind == "global" or binding.addr_taken or binding.passed
        or isinstance(binding.ctype, ArrayType))


class KgccRuntime:
    """One runtime instance per checked program execution context."""

    def __init__(self, kernel: "Kernel | None" = None, *,
                 mode: Mode = Mode.SYSTEM):
        self.kernel = kernel
        self.mode = mode
        self.map = ObjectMap(on_visit=self._charge_visits)
        # the map's containers (never reassigned): the checks consult them
        # directly, so each check is one splay lookup and one charge
        self._tree = self.map._tree
        self._oob = self.map._oob
        self._one_past = self.map.one_past
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

    def on_decl(self, binding: Binding, addr: int, site: str) -> None:
        """Compiler-inserted registration of a stack object."""
        if not registered(binding):
            return
        self._charge_register()
        self.map.register(addr, max(binding.ctype.size, 1), "stack", site)
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
        if origin is None or addr < origin.base \
                or addr + max(size, 1) > origin.end:
            if origin is None or addr < origin.base:
                # a one-past-the-end base indexes back into its own
                # object, as in check_arith
                origin = self._one_past.get(base, origin)
            if origin is None:
                self.check_failures += 1
                raise InvalidPointer(base, "indexing an unknown pointer")
            if addr < origin.base or addr + max(size, 1) > origin.end:
                self.check_failures += 1
                raise BoundsError(
                    addr, f"index access of {size} bytes escapes object "
                          f"[{origin.base:#x}, {origin.end:#x})", site)

    def check_arith(self, base: int, result: int, site: str) -> int:
        """Validate pointer arithmetic; may create or retire an OOB peer.

        C blesses a pointer one past an object's end, and that address
        can hold no object or the next one.  A one-past result is
        remembered, and arithmetic from that address to below the
        object found there (or where none is) is attributed to the
        remembered object."""
        self.checks_executed += 1
        self.site_counts[site] += 1
        # Arithmetic starting from an existing OOB peer?
        src_oob = self._oob.get(base)
        if src_oob is not None:
            self._charge_check()
            origin: MemObject | None = src_oob.peer
        else:
            origin = self._lookup_charged(base)
            if origin is None or result < origin.base:
                origin = self._one_past.get(base, origin)
        if origin is None:
            self.check_failures += 1
            raise InvalidPointer(
                base, "pointer arithmetic on an unknown pointer")
        # C blesses the one-past-the-end address; beyond that, a peer.
        end = origin.end
        if origin.base <= result < end:
            return result
        if result == end:
            self._one_past[result] = origin
        else:
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
