"""Seeded, deterministic fault injection for the compile/serve seams.

The tier-up contract this repo grew PR over PR — tier 0 is always a
correct fallback, so compilation is *advisory* — is only as strong as
its failure paths.  The artifact and profile stores were already
paranoid about **read** corruption (anything torn, skewed, or mangled
silently recompiles / reads as no heat), but nothing systematically
exercised a compile-stage crash or a store *write* failure while a
live guest request was on the stack.  This module is the adversary that
proves those paths: a :class:`FaultPlan` injects failures at named seams
of the pipeline, deterministically, from a seed.

Seams (:data:`SEAMS`):

``specialize``
    Raises :class:`FaultInjected` inside the engine's
    ``_load_or_specialize``, just before the weval transform runs — a
    compiler crash at a call boundary.
``verify``
    Raises right after specialization, in the same body — a verifier
    crash (distinct from a *rejection*, which is the already-tested
    silent-recompile path).
``emit``
    Raises inside ``_emit``, the engine's one emission body, whichever
    road called it (a batch, or ``compile_backend_functions``).
``store_read``
    The artifact store treats the read as corrupt: the load reports
    ``INVALID`` and the engine recompiles — the read seam never raises
    by construction.
``store_write``
    The artifact store treats the write as failed (full disk, revoked
    permissions); repeated failures flip the store into memory-only
    degraded mode (:mod:`repro.pipeline.artifacts`).
``heat_merge``
    The profile store's merge write fails; the publish high-water marks
    must retain the delta for the next attempt.
``body``
    Raises on the first read of a stored residual whose body was left
    as text (a code hit on the py backend,
    :class:`~repro.pipeline.artifacts.StoredResidual`) — corruption
    found late, after the residual was installed.  Every late reader
    contains it: inline planning leaves the site un-inlined, a tier-up
    emit fails its attempt into quarantine, and the IR VM's entries
    (``SnapshotCompiler.read_bodies``) specialize the residual again.

**Determinism.**  Each seam keeps its own consult counter and its own
``random.Random`` seeded from ``(seed, seam)``; the Nth consult of a
seam fires (or not) identically across runs for the same plan
configuration, because the engine compiles in-process and the consult
order is the program order.

A plan is consulted only where one is installed
(``SpecializeOptions(fault_plan=...)``); with no plan the containment
hooks are a single ``is not None`` test — the no-plan execution stays
byte-identical to a build without this module
(``tests/test_chaos.py::TestInertPlan`` holds results, fuel and
promotions equal under an armed plan that never fires).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional

SEAMS = ("specialize", "verify", "emit", "store_read", "store_write",
         "heat_merge", "body")


class FaultInjected(Exception):
    """An injected failure from a :class:`FaultPlan` seam.

    Deliberately a plain ``Exception`` subclass: the containment layer
    must survive *any* exception type, so the injector uses the most
    generic class the policy is allowed to catch.
    """


class FaultPlan:
    """A deterministic schedule of failures over the pipeline seams.

    ``rates`` maps seam name to a firing probability per consult, drawn
    from a per-seam seeded RNG; ``at`` maps seam name to explicit
    0-based consult indices that fire regardless of rate (the precise
    single-shot schedules the regression tests use).  ``max_fires``
    caps the total number of injected faults across all seams.

    :meth:`disarm` stops all firing (consult counters keep advancing,
    so a later :meth:`arm` resumes the same deterministic sequence) —
    the chaos tier uses this to prove a quarantined function re-promotes
    once the injection stops.
    """

    def __init__(self, seed: int = 0,
                 rates: Optional[Dict[str, float]] = None,
                 at: Optional[Dict[str, Iterable[int]]] = None,
                 max_fires: Optional[int] = None):
        for seam in list(rates or ()) + list(at or ()):
            if seam not in SEAMS:
                raise ValueError(f"unknown fault seam {seam!r}")
        self.seed = seed
        self.rates = dict(rates or {})
        self.at = {seam: frozenset(indices)
                   for seam, indices in (at or {}).items()}
        self.max_fires = max_fires
        self.armed = True
        self.consults: Dict[str, int] = {}
        self.fired: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}

    @classmethod
    def once(cls, seam: str, index: int = 0) -> "FaultPlan":
        """A plan that fires exactly one fault: consult ``index`` of
        ``seam``."""
        return cls(at={seam: (index,)})

    @classmethod
    def always(cls, *seams: str) -> "FaultPlan":
        """A plan that fires on every consult of the given seams (the
        persistent-outage schedules: full disk, dead compiler)."""
        return cls(rates={seam: 1.0 for seam in seams})

    # ------------------------------------------------------------------
    # Consultation.
    # ------------------------------------------------------------------
    def _rng(self, seam: str) -> random.Random:
        rng = self._rngs.get(seam)
        if rng is None:
            rng = self._rngs[seam] = random.Random(f"{self.seed}/{seam}")
        return rng

    def fires(self, seam: str) -> bool:
        """Advance ``seam``'s consult counter and decide whether this
        consult fails.  Non-raising seams (store read/write, heat merge)
        use this directly; exception seams go through :meth:`check`."""
        index = self.consults.get(seam, 0)
        self.consults[seam] = index + 1
        fire = index in self.at.get(seam, ())
        rate = self.rates.get(seam, 0.0)
        if rate and self._rng(seam).random() < rate:
            fire = True
        if fire and self.armed and (
                self.max_fires is None
                or self.total_fired() < self.max_fires):
            self.fired[seam] = self.fired.get(seam, 0) + 1
            return True
        return False

    def check(self, seam: str) -> None:
        """Raise :class:`FaultInjected` when this consult of ``seam``
        fires."""
        if self.fires(seam):
            raise FaultInjected(
                f"injected fault at seam {seam!r} "
                f"(consult {self.consults.get(seam, 1) - 1})")

    def total_fired(self) -> int:
        return sum(self.fired.values())

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        """Stop injecting (counters keep advancing deterministically)."""
        self.armed = False

    def __repr__(self) -> str:
        spec = {seam: rate for seam, rate in self.rates.items()}
        spec.update({seam: sorted(idx) for seam, idx in self.at.items()})
        return (f"FaultPlan(seed={self.seed}, {spec}, "
                f"fired={self.total_fired()}, armed={self.armed})")
