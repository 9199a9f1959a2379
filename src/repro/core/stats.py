"""Statistics collected while specializing (S6.2, S6.4, S6.5).

All counters are *static* (counts of instruction sites in generated code)
except where a benchmark combines them with the VM's dynamic counters.
:class:`PassStats` / :class:`PipelineStats` account for the
post-specialization mid-end (``repro.opt``): per-pass change and timing
counters fed by :func:`~repro.opt.pipeline.optimize_function`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


class _Mergeable:
    """``merge(other)`` for a stats dataclass, derived from its fields:
    a numeric field adds, a field that is itself mergeable recurses, and
    a dict of mergeables merges by key."""

    def merge(self, other) -> None:
        for field in dataclasses.fields(self):
            mine = getattr(self, field.name)
            theirs = getattr(other, field.name)
            if isinstance(mine, _Mergeable):
                mine.merge(theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine.setdefault(key, type(value)()).merge(value)
            else:
                setattr(self, field.name, mine + theirs)


@dataclasses.dataclass
class PassStats(_Mergeable):
    """Counters for one named optimization pass (or a sum over runs):
    executions, the changes they reported, and the time they took."""

    runs: int = 0
    changes: int = 0
    seconds: float = 0.0


@dataclasses.dataclass
class PipelineStats(_Mergeable):
    """Counters for pass-pipeline executions (one or a sum over many).

    ``fixpoint_cap_hits`` counts pipeline runs that exhausted
    ``OPT_MAX_ROUNDS`` while passes were still reporting changes — i.e. the
    fixpoint was *not* reached and residual redundancy may remain.
    """

    runs: int = 0
    rounds: int = 0
    fixpoint_cap_hits: int = 0
    # Constants, not fields: they survive only for their reader,
    # benchmarks/ledger/ledger_workloads.py::layer_metrics.
    passes_skipped = 0
    workcheck_seconds = 0.0
    instrs_before: int = 0
    instrs_after: int = 0
    seconds: float = 0.0
    # Speculative inlining decisions (repro.opt.inline).
    inline_attempted: int = 0        # plan sites considered
    inline_committed: int = 0        # sites actually spliced
    inline_rejected_size: int = 0    # targets over the hard size cap
    per_pass: Dict[str, PassStats] = dataclasses.field(default_factory=dict)

    def pass_stats(self, name: str) -> PassStats:
        stats = self.per_pass.get(name)
        if stats is None:
            stats = self.per_pass[name] = PassStats()
        return stats


@dataclasses.dataclass
class EngineStats(_Mergeable):
    """Counters for :class:`~repro.pipeline.engine.CompilationEngine`
    batches (one batch or a sum over many).

    ``functions_specialized`` counts *fresh* weval runs only — the
    warm-start proof for the artifact store is exactly this counter
    staying at zero on a second run over the same module and requests.
    """

    requests: int = 0
    functions_specialized: int = 0   # fresh weval transforms
    cache_hits: int = 0              # duplicates of a key within a batch
    artifact_hits: int = 0           # residual IR loaded from disk
    artifact_invalid: int = 0        # version skew / fp mismatch / corrupt
    artifacts_written: int = 0
    backend_emitted: int = 0         # fresh emitter runs
    backend_source_hits: int = 0     # emitted source loaded from disk
    backend_code_hits: int = 0       # ... of which with a usable code
                                     # object (no re-parse/compile)
    backend_fallbacks: int = 0
    inline_requests: int = 0         # requests carrying an inline plan
    helpers: int = 0                 # helpers compiled (not requests)
    # Fault containment (PR 9): per-request failures and degradations.
    requests_failed: int = 0         # results returned with .error set
    store_write_failures: int = 0    # artifact-store writes that failed
    store_degraded: int = 0          # 1 while the store is memory-only


@dataclasses.dataclass
class TieringStats(_Mergeable):
    """Counters for :class:`~repro.pipeline.tiering.TieringController`.

    ``tier0_calls`` counts calls that actually executed on the generic
    interpreter — hook-observed calls that were redirected to an
    installed specialization (or promoted at that boundary) are not
    tier-0 executions.  ``deopts`` counts guard failures
    unwound at a call boundary; ``demotions`` counts speculative
    residuals retired because of one (at most one per function — the
    respecialized replacement carries no guards).
    """

    tier0_calls: int = 0
    promotions: int = 0              # functions promoted off tier 0
    speculative_promotions: int = 0  # ... of which carry entry guards
    tier2_installs: int = 0          # backend callables installed
    deopts: int = 0
    demotions: int = 0
    promote_seconds: float = 0.0     # wall clock spent inside promotions
    # Speculative inlining (PR 8): per-call-site speculation lifecycle.
    inline_sites_planned: int = 0    # sites placed into an inline plan
    inline_candidates_rejected: int = 0  # hot sites rejected (size/poly)
    site_misses: int = 0             # site-guard misses observed
    site_demotions: int = 0          # sites retired after a miss
    # Fault containment (PR 9): quarantine / blacklist / storm breaker.
    compile_failures: int = 0        # contained promotion exceptions
    quarantines: int = 0             # functions put into backoff
    quarantine_retries: int = 0      # promotion retried after backoff
    quarantine_recoveries: int = 0   # ... and the retry succeeded
    blacklists: int = 0              # functions pinned tier-0 for good
    storm_pins: int = 0              # functions pinned generic by the
                                     # deopt-storm breaker


@dataclasses.dataclass
class SpecializationStats(_Mergeable):
    """Counters for one specialization (or a sum over many)."""

    # State-intrinsic effectiveness (S6.2).
    stack_loads_elided: int = 0
    stack_loads_real: int = 0
    stack_stores_elided: int = 0
    stack_stores_real: int = 0
    local_loads_elided: int = 0
    local_loads_real: int = 0
    local_stores_elided: int = 0
    local_stores_real: int = 0
    # Transform work.
    block_revisits: int = 0
    block_visits: int = 0            # worklist pops
    meets_performed: int = 0
    # A constant, not a field: it survives only for its reader,
    # benchmarks/ledger/ledger_workloads.py::layer_metrics.
    meets_skipped = 0
    meets_single_pred: int = 0       # sole-contributor fast-path meets
    intern_hits: int = 0             # lattice-constant hash-cons hits
    intern_misses: int = 0
    contexts_created: int = 0
    loads_folded_from_const_memory: int = 0
    branches_folded: int = 0
    # Output shape.
    output_blocks: int = 0
    output_instrs: int = 0
    # Post-specialization mid-end accounting (filled by the pass manager).
    opt: PipelineStats = dataclasses.field(default_factory=PipelineStats)

    # Convenience ratios for the S6.2/S6.5-style reports.
    def intern_hit_rate(self) -> float:
        total = self.intern_hits + self.intern_misses
        return self.intern_hits / total if total else 0.0

    def revisit_rate(self) -> float:
        """Re-flows per worklist visit — the S6.5 transform-speed waste
        metric (0 means every block was built exactly once)."""
        return (self.block_revisits / self.block_visits
                if self.block_visits else 0.0)

    def stack_load_elision_rate(self) -> float:
        total = self.stack_loads_elided + self.stack_loads_real
        return self.stack_loads_elided / total if total else 0.0

    def stack_store_elision_rate(self) -> float:
        total = self.stack_stores_elided + self.stack_stores_real
        return self.stack_stores_elided / total if total else 0.0

    def local_load_elision_rate(self) -> float:
        total = self.local_loads_elided + self.local_loads_real
        return self.local_loads_elided / total if total else 0.0

    def local_store_elision_rate(self) -> float:
        total = self.local_stores_elided + self.local_stores_real
        return self.local_stores_elided / total if total else 0.0
