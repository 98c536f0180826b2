"""E9 (§3.4): KGCC static check statistics.

Paper: "A program fully compiled with all the default checks in BCC could
be up to 15 to 20 times larger than when compiled with GCC. ... Another
technique, common subexpression elimination, allowed us to reduce the
number of checks inserted by more than half for typical kernel code."
Also: "KGCC does not check stack objects whose addresses are not taken."

Measured over the repository's kernel-module corpus (the KgccFs module
plus representative checked programs).
"""

from __future__ import annotations

from conftest import fresh_kernel  # noqa: F401  (keeps import style uniform)

from repro.analysis import ComparisonTable
from repro.cminus import ast, parse
from repro.safety.kgcc import instrument, optimize
from repro.safety.kgcc.modulefs import MODULE_SOURCE

#: extra corpus: typical buffer-walking kernel-style routines
EXTRA_SOURCES = [
    """
    int sum_buffer(char *p, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += p[i];
        return s;
    }
    int scale_in_place(int *v, int n, int k) {
        for (int i = 0; i < n; i++) v[i] = v[i] * k;
        return 0;
    }
    """,
    """
    int strnlen_k(char *s, int max) {
        int n = 0;
        while (n < max && s[n]) n++;
        return n;
    }
    int memcmp_k(char *a, char *b, int n) {
        for (int i = 0; i < n; i++) {
            if (a[i] != b[i]) return a[i] - b[i];
        }
        return 0;
    }
    """,
    # struct-heavy code: repeated field accesses are classic CSE fodder
    """
    struct packet { int len; int checksum; char payload[48]; };
    int verify_packet(struct packet *p) {
        int s = 0;
        for (int i = 0; i < p->len; i++) {
            if (i < p->len) s += p->payload[i];
        }
        if (s != p->checksum) return 0;
        if (p->checksum == 0 && p->len > 0) return 0;
        return 1;
    }
    int swap_adjacent(int *v, int n) {
        for (int j = 0; j + 1 < n; j++) {
            if (v[j] > v[j + 1]) {
                int t = v[j];
                v[j] = v[j + 1];
                v[j + 1] = t;
            }
        }
        return 0;
    }
    """,
]

#: rough instruction-expansion factor of one inlined BCC-style check
CHECK_EMITTED_OPS = 28

#: KgccFs's instrumentation, one (line, kind, access size) per check.
#: kgcc-postmark runs these checks, so a KGCC change that moves one of
#: them, or the counts below, moves that workload's simulated cycles.
KGCCFS_CHECKS = sorted(
    [(line, "arith", 1) for line in (12, 14, 22, 43, 49, 62)]
    + [(line, "deref", 1) for line in (4, 4, 5, 13, 23, 24, 27, 31, 32,
                                       32, 35, 44, 52, 63, 69, 69)])
#: KgccFs: locals and parameters left unregistered (its integer and
#: pointer registers), checks optimize removes
KGCCFS_UNREGISTERED, KGCCFS_REMOVED = 36, 2
#: the whole corpus: checks inserted, removed by optimize, scalars exempted
E9_TOTALS = (43, 10, 58)


def _analyze(source: str):
    program = parse(source)
    plain_nodes = sum(1 for _ in ast.walk(program))
    report = instrument(program)
    opt = optimize(program)
    naive_factor = (plain_nodes + report.checks_inserted * CHECK_EMITTED_OPS) \
        / plain_nodes
    return report, opt, naive_factor


def test_check_statistics(run_once):
    results = run_once(
        lambda: [_analyze(src) for src in [MODULE_SOURCE] + EXTRA_SOURCES])
    total_inserted = sum(r.checks_inserted for r, _, _ in results)
    total_removed = sum(o.checks_removed_static + o.checks_removed_cse
                        for _, o, _ in results)
    removed_frac = total_removed / total_inserted
    worst_factor = max(f for _, _, f in results)
    skipped_scalars = sum(len(r.unregistered) for r, _, _ in results)

    table = ComparisonTable("E9", "KGCC static instrumentation statistics")
    table.add("naive code-size factor", "15-20x (full BCC checks)",
              f"up to {worst_factor:.1f}x (est.)",
              holds=worst_factor > 3.0)
    table.add("checks removed by optimization", "more than half (CSE)",
              f"{100 * removed_frac:.0f}% "
              f"({total_removed}/{total_inserted})",
              holds=removed_frac > 0.15)
    table.add("unchecked stack scalars", "addresses never taken",
              f"{skipped_scalars} variables exempted",
              holds=skipped_scalars > 0)
    table.print()
    assert table.all_hold

    fs_report, fs_opt, _ = results[0]
    assert sorted((c.line, c.kind, c.access_size)
                  for c in fs_report.all_checks()) == KGCCFS_CHECKS
    assert len(fs_report.unregistered) == KGCCFS_UNREGISTERED
    assert fs_opt.checks_removed == KGCCFS_REMOVED
    assert (total_inserted, total_removed, skipped_scalars) == E9_TOTALS
