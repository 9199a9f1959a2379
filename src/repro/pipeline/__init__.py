"""The compilation pipeline layer: batch AOT over one persistent cache.

This package unifies the per-runtime AOT flows behind one subsystem,
the paper's production story (S6.5) made concrete:

* :class:`~repro.pipeline.engine.CompilationEngine` — batch
  specialize → opt → verify → emit, in-process: one record per request
  filled by two walks in request order (residuals, one specialize run
  per distinct key; then emission through the one emit body, hit
  accounting and store writes);
* :class:`~repro.pipeline.artifacts.ArtifactStore` — the S6.5
  specialization cache: the persistent on-disk store (``cache_dir``) of
  residual IR and emitted backend source, keyed by
  :func:`~repro.core.cache.request_key`.  A residual is stored as its
  printed IR text and read back by :func:`~repro.ir.parse_function`
  when its body is first read — a warm start of compiled code reads
  none; an entry that does not parse or verify is a miss;
* :class:`~repro.pipeline.tiering.TieringController` — profile-guided
  dynamic tier-up at run time (tier 0 generic interpreter → tier 1
  residual IR → tier 2 compiled Python), with guarded speculation and
  deopt back to the generic interpreter.  Pure AOT is the special case
  :meth:`~repro.pipeline.tiering.TieringController.promote_all`;
* :class:`~repro.pipeline.profiles.ProfileStore` — the fleet's
  persisted hot-set: per-function call/backedge heat merged across
  worker processes in the shared ``cache_dir``, published by
  :meth:`~repro.pipeline.tiering.TieringController.publish_heat` and
  re-adopted by
  :meth:`~repro.pipeline.tiering.TieringController.adopt_heat`, so a
  fresh worker starts at the fleet's steady state;
* :class:`~repro.pipeline.host.GuestRuntime` /
  :func:`~repro.pipeline.host.controller_for` — the host glue every
  guest runtime shares: a guest supplies ``tier_entries()`` and
  ``enter(vm)`` and gets AOT compilation and the run modes.

Every embedder reaches the engine through
:class:`~repro.core.snapshot.SnapshotCompiler`, which delegates its
``process_requests()`` / ``compile_backend()`` to one; it is configured
in exactly one place, ``SpecializeOptions(cache_dir=..., backend=...)``.
"""

from repro.pipeline.artifacts import (
    ARTIFACT_VERSION,
    EMITTER_VERSION,
    ArtifactStore,
    atomic_write_json,
    locked_write_json,
    residual_fingerprint,
)
from repro.pipeline.engine import CompilationEngine, EngineResult
from repro.pipeline.faults import SEAMS, FaultInjected, FaultPlan
from repro.pipeline.host import GuestRuntime, controller_for
from repro.pipeline.profiles import (
    PROFILE_VERSION,
    ProfileStore,
    open_profile_store,
    profile_key,
)
from repro.pipeline.tiering import (
    DEFAULT_THRESHOLD,
    FunctionProfile,
    PromotionError,
    TierEntry,
    TieringController,
)

__all__ = [
    "ARTIFACT_VERSION",
    "DEFAULT_THRESHOLD",
    "EMITTER_VERSION",
    "PROFILE_VERSION",
    "SEAMS",
    "ArtifactStore",
    "CompilationEngine",
    "EngineResult",
    "FaultInjected",
    "FaultPlan",
    "FunctionProfile",
    "GuestRuntime",
    "ProfileStore",
    "PromotionError",
    "TierEntry",
    "TieringController",
    "atomic_write_json",
    "controller_for",
    "locked_write_json",
    "open_profile_store",
    "profile_key",
    "residual_fingerprint",
]
