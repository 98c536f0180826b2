#!/usr/bin/env python3
"""Quickstart: boot a simulated kernel, touch every system in the paper.

Run:  python examples/quickstart.py
"""

from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.vfs import O_CREAT, O_RDONLY, O_WRONLY


def main() -> None:
    # ---- boot a machine --------------------------------------------------
    kernel = Kernel()
    kernel.mount_root(RamfsSuperBlock(kernel))
    kernel.spawn("quickstart")

    # ---- ordinary syscalls (every boundary crossing is metered) ----------
    fd = kernel.sys.open("/hello.txt", O_CREAT | O_WRONLY)
    kernel.sys.write(fd, b"hello, kernel world\n")
    kernel.sys.close(fd)
    print("file contents:", kernel.sys.open_read_close("/hello.txt"))

    # ---- consolidated syscalls (Section 2.2) -----------------------------
    kernel.sys.mkdir("/inbox")
    for i in range(5):
        kernel.sys.open_write_close(f"/inbox/msg{i}", b"x" * (100 * i))

    with kernel.measure() as legacy:
        fd = kernel.sys.open("/inbox", O_RDONLY)
        names = [e.name for batch in iter(
            lambda: kernel.sys.getdents(fd), []) for e in batch]
        sizes = {n: kernel.sys.stat(f"/inbox/{n}").size for n in names}
        kernel.sys.close(fd)

    with kernel.measure() as consolidated:
        sizes2 = {e.name: st.size for e, st in kernel.sys.readdirplus("/inbox")}

    assert sizes == sizes2
    print(f"\nreaddir+stat: {legacy.syscalls} syscalls, "
          f"{legacy.copies.total_bytes} boundary bytes")
    print(f"readdirplus : {consolidated.syscalls} syscall, "
          f"{consolidated.copies.total_bytes} boundary bytes")
    imp = consolidated.timings.improvement_over(legacy.timings)
    print(f"improvement : elapsed {imp['elapsed']:.1f}%  "
          f"system {imp['system']:.1f}%  user {imp['user']:.1f}%")

    # ---- a Cosy compound (Section 2.3) ------------------------------------
    from repro.core.cosy import CosyGCC, CosyKernelExtension, CosyLib

    source = """
    int main() {
        COSY_START();
        int fd = open("/hello.txt", 0);
        char buf[64];
        int n = read(fd, buf, 64);
        close(fd);
        return n;
        COSY_END();
        return 0;
    }
    """
    ext = CosyKernelExtension(kernel)
    lib = CosyLib(kernel, ext)
    installed = lib.install(kernel.current, CosyGCC().compile(source))
    with kernel.measure() as m:
        result = installed.run()
    print(f"\nCosy compound read {result.value} bytes in "
          f"{m.syscalls} trap; buffer starts with "
          f"{result.buffer('buf')[:12]!r}")

    # ---- Kefence catches an overflow (Section 3.2) ------------------------
    from repro.errors import BufferOverflow
    from repro.kernel.memory import AddressSpace
    from repro.safety.kefence import Kefence

    kefence = Kefence(kernel)
    buf = kefence.malloc(100, site="quickstart.py:demo")
    aspace = AddressSpace(kernel.kernel_pt)
    try:
        kernel.mmu.write(aspace, buf + 100, b"!")  # one byte past the end
    except BufferOverflow as exc:
        print(f"\nKefence: {exc}")
    kefence.free(buf)

    # ---- KGCC catches a C bug (Section 3.4) -------------------------------
    from repro.cminus import Interpreter, UserMemAccess, parse
    from repro.errors import BoundsError
    from repro.safety.kgcc import KgccRuntime, instrument

    buggy = """
    int main() {
        int a[4];
        for (int i = 0; i <= 4; i++) a[i] = i;   /* classic off-by-one */
        return 0;
    }
    """
    program = parse(buggy)
    instrument(program)
    runtime = KgccRuntime(kernel)
    mem = UserMemAccess(kernel, kernel.current)
    try:
        Interpreter(program, mem, check_runtime=runtime,
                    var_hooks=runtime).call("main")
    except BoundsError as exc:
        print(f"KGCC:    {exc}")

    # ---- event monitoring (Section 3.3) ------------------------------------
    from repro.safety.monitor import EventDispatcher, RefcountMonitor

    dispatcher = EventDispatcher(kernel).attach()
    monitor = RefcountMonitor()
    dispatcher.register_callback(monitor)
    inode = kernel.vfs.path_walk("/hello.txt").inode
    inode.i_count.instrumented = True
    fd = kernel.sys.open("/hello.txt", O_RDONLY)   # i_count++ observed
    kernel.sys.close(fd)                            # i_count-- observed
    print(f"monitor: observed {monitor.events_seen} refcount events, "
          f"imbalances: {monitor.imbalances() or 'none'}")

    print(f"\nsimulated machine state: {kernel}")


if __name__ == "__main__":
    main()
