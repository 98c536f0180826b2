"""E7/E8 (§3.4): KGCC-compiled filesystem module vs vanilla GCC build.

Paper (KGCC-compiled Reiserfs vs vanilla, Linux 2.6.7):

* Am-utils compile (CPU-intensive): system time +33%, elapsed +20%;
* PostMark (I/O- and metadata-intensive): system time 14x, elapsed 3x.

Shape to hold: checks make kernel (system) time balloon, dramatically so
for the metadata-heavy workload (every dirent scan iteration pays a splay
lookup), while elapsed grows much less because user compute and disk I/O
are untouched.

Both runs are deterministic, so their integer clock totals are pinned as
well: a change to the module's code, to KGCC or to the C-minus engines
that moves a simulated cycle fails here and must say why.
"""

from __future__ import annotations

from conftest import fresh_kernel

from repro.analysis import ComparisonTable
from repro.kernel.costs import CostModel
from repro.kernel.fs import Ext2SuperBlock
from repro.kernel.fs.disk import Disk
from repro.safety.kgcc.modulefs import KgccFsSuperBlock
from repro.workloads import (CompileBench, CompileBenchConfig, PostMark,
                             PostMarkConfig)

COMPILE_CFG = CompileBenchConfig(nfiles=15, headers=12,
                                 srcdir="/mnt/src", objdir="/mnt/obj")
PM_CFG = PostMarkConfig(nfiles=100, transactions=150, workdir="/mnt/postmark")

#: (system, elapsed) cycles of the vanilla and the checked run
E7_CYCLES = {"vanilla": (1_022_260, 4_857_100),
             "checked": (2_212_872, 6_047_712)}
E8_CYCLES = {"vanilla": (8_878_954, 205_854_100),
             "checked": (170_147_506, 367_125_052)}


def _cycles(vanilla, checked) -> dict[str, tuple[int, int]]:
    """The runs' (system, elapsed) clock totals, in cycles."""
    hz = CostModel().hz
    return {side: (round(r.timings.system * hz), round(r.timings.elapsed * hz))
            for side, r in (("vanilla", vanilla), ("checked", checked))}


def _mount_kgccfs(checked: bool, *, cache_blocks: int = 8192):
    kernel = fresh_kernel("ramfs")
    kernel.sys.mkdir("/mnt")
    disk = Disk(kernel, nblocks=1 << 19)
    lower = Ext2SuperBlock(kernel, disk, name="lower",
                           cache_blocks=cache_blocks)
    sb = KgccFsSuperBlock(kernel, lower, checked=checked)
    kernel.vfs.mount("/mnt", sb)
    return kernel, sb


def _compile_run(checked: bool):
    kernel, sb = _mount_kgccfs(checked)
    bench = CompileBench(kernel, COMPILE_CFG)
    bench.prepare()
    return bench.run(), sb


def _postmark_run(checked: bool):
    # A bounded buffer cache keeps some real disk traffic in play, as the
    # paper's 20 GB IDE disk did: elapsed growth then lags system growth.
    kernel, sb = _mount_kgccfs(checked, cache_blocks=240)
    result = PostMark(kernel, PM_CFG).run()
    return result, sb


def test_kgcc_compile(run_once):
    (vanilla, _), (checked, sb) = run_once(
        lambda: (_compile_run(False), _compile_run(True)))
    ovh = checked.timings.overhead_over(vanilla.timings)
    table = ComparisonTable("E7", "KGCC module, Am-utils-like compile")
    table.add("system time overhead", "+33%", f"+{ovh['system']:.0f}%",
              holds=10.0 < ovh["system"] < 250.0)
    table.add("elapsed time overhead", "+20%", f"+{ovh['elapsed']:.0f}%",
              holds=0.0 < ovh["elapsed"] < ovh["system"])
    table.note(f"{sb.engine.runtime.checks_executed:,} checks executed, "
               f"{sb.engine.runtime.check_failures} failures")
    table.print()
    assert table.all_hold
    assert _cycles(vanilla, checked) == E7_CYCLES


def test_kgcc_postmark(run_once):
    (vanilla, _), (checked, sb) = run_once(
        lambda: (_postmark_run(False), _postmark_run(True)))
    sys_ratio = checked.timings.system / vanilla.timings.system
    elapsed_ratio = checked.timings.elapsed / vanilla.timings.elapsed
    table = ComparisonTable("E8", "KGCC module, PostMark")
    table.add("system time ratio", "14x", f"{sys_ratio:.1f}x",
              holds=sys_ratio > 3.0)
    table.add("elapsed time ratio", "3x", f"{elapsed_ratio:.1f}x",
              holds=1.2 < elapsed_ratio < sys_ratio)
    table.add("PostMark >> compile overhead", "yes",
              "yes" if sys_ratio > 2.0 else "no", holds=sys_ratio > 2.0)
    table.note(f"{sb.engine.runtime.checks_executed:,} checks executed; "
               f"metadata scans dominate, every slot access pays a splay "
               f"consultation")
    table.print()
    assert table.all_hold
    assert _cycles(vanilla, checked) == E8_CYCLES
