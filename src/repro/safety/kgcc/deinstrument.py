"""Dynamic deinstrumentation (§3.5, implemented).

"As code paths execute safely more times and more often, one can state
with greater confidence that they are correct.  We intend to implement
instrumentation that can be deactivated when it has executed a sufficient
number of times, reclaiming performance quickly as the confidence level
for frequently-executed code becomes acceptable."

The deinstrumenter watches the runtime's per-site execution counters and
flips ``Check.enabled`` off for sites that have executed ``threshold``
times without a single failure.  Disabled checks cost nothing (the
interpreter skips the runtime call).  A site where a failure ever occurred
is pinned enabled forever.
"""

from __future__ import annotations

from repro.cminus.compile import bump_generation
from repro.safety.kgcc.instrument import InstrumentationReport
from repro.safety.kgcc.runtime import KgccRuntime


class DynamicDeinstrumenter:
    """Deactivates trusted check sites based on execution counts."""

    def __init__(self, runtime: KgccRuntime, report: InstrumentationReport,
                 *, threshold: int = 10_000):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.runtime = runtime
        self.report = report
        self.threshold = threshold
        self.disabled_sites: set[str] = set()
        self.pinned_sites: set[str] = set()

    def pin(self, site: str) -> None:
        """Never disable this site (e.g. it has seen a failure)."""
        self.pinned_sites.add(site)
        self._set_enabled(site, True)
        self.disabled_sites.discard(site)

    def sweep(self) -> int:
        """Disable every unpinned site past the threshold.  Returns the
        number of sites newly disabled.  Call at any convenient cadence
        (the benchmarks sweep between workload phases)."""
        newly = 0
        for site, count in self.runtime.site_counts.items():
            if site in self.disabled_sites or site in self.pinned_sites:
                continue
            if count >= self.threshold:
                self._set_enabled(site, False)
                self.disabled_sites.add(site)
                newly += 1
        return newly

    def enable_all(self) -> None:
        """Re-arm every site (e.g. after loading untrusted input)."""
        for site in list(self.disabled_sites):
            self._set_enabled(site, True)
        self.disabled_sites.clear()

    def _set_enabled(self, site: str, enabled: bool) -> None:
        for check in self.report.nodes_at(site):
            check.enabled = enabled
        # generated code reads Check.enabled live, so the toggle takes
        # effect immediately — but the generation bump still records that
        # cached code was built against a different check configuration
        if self.report.program is not None:
            bump_generation(self.report.program)

    @property
    def active_sites(self) -> int:
        return len(self.report.sites) - len(self.disabled_sites)
