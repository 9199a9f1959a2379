"""Profile-guided dynamic tier-up: the runtime half of the pipeline.

The :class:`TieringController` runs three tiers over the *same*
compilation machinery the AOT flows use (a
:class:`~repro.core.snapshot.SnapshotCompiler`, and so the engine and
its stores): **tier 0**, the generic interpreter with call and
loop-backedge counters; **tier 1**, the weval residual IR on the VM;
**tier 2**, the residual compiled to Python by :mod:`repro.backend`.

Promotion happens *at call boundaries*: the VM's tier hook fires when a
call is about to go generic, and a function over the hot threshold is
compiled right there, installed, and the triggering call redirected.
Because the redirect replaces the exact call that would have gone
generic, threshold 1 reproduces pure AOT bit for bit (fuel included)
and threshold ∞ is the plain interpreter; pure AOT is
:meth:`TieringController.promote_all`, the same path run up front.  Two
speculations ride on it, each demoted *exactly once* when its guard
fails: a stable runtime argument folded behind an entry ``guard``
(``speculate=True``), and hot ``call_indirect`` sites spliced behind
site guards from histograms taken in the staged tier-1 window
(``inline=True``, :mod:`repro.opt.inline`).

**One transition choke point.**  The policies only *decide*.  What a
decision changes — ``profile.tier`` / ``installed_name`` /
``table_index``, the guest dispatch slot, ``vm.deopt_fallbacks``, the
site-profiling window, the :class:`TieringStats` counter, the VM's call
links — is applied by :meth:`TieringController._transition` and nowhere
else.  The slot **rule**: *patched with the table index iff the function
is at tier 2, or at tier 1 without staging* (the VM backend); *zero
otherwise*.  In staged mode tier 1 is the staged window — promoted, the
backend compile still owed — and the site window holds exactly the
residuals in it.  Every transition resets the call links once — a batch
shares one reset, and opening a staged window, which leaves guest
dispatch exactly as it was, needs none — so a raw-linked call never
outlives what its probe checked.

===============  =========  =====  ==========  ======  ==========
reason           tier       slot   fallback    window  counter
===============  =========  =====  ==========  ======  ==========
``attach``       —          —      —           sync    —
``register``     0          0      —           —       —
``unregister``   0, gone    0      —           out     —
``promote``      2 (py), 1  rule   speculated  rule    promotions
``tier2``        2          index  speculated  out     —
``site-demote``  kept       rule   speculated  rule    —
``quarantine``   kept       rule   —           rule    —
``deopt``        0          0      —           out     demotions
``blacklist``    0          0      —           out     blacklists
===============  =========  =====  ==========  ======  ==========

A failed emit is a failed compile like any other: ``quarantine``, then
``blacklist``.  Fallback: registered with a newly installed residual iff
it is entry-speculated, because an entry guard is the only guard that
unwinds (a site guard's miss resumes in place).  ``promote`` is per-call
promotion, ``promote_all`` and ``adopt_heat``; an installed tier-2
callable bumps ``tier2_installs`` whatever the reason.  With
``REPRO_OPT_VERIFY=1`` :meth:`TieringController.check_invariants`
re-derives the table from the live heap after every transition, and
checks the two bounds the policies give by construction: a blacklisted
function is at tier 0, and a function deopts at its entry at most once
(``deopt`` sets ``no_speculate``, so no later residual of it is
entry-guarded).
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cache import function_fingerprint
from repro.core.request import (
    Runtime,
    SpecializationRequest,
    SpeculatedConst,
)
from repro.core.snapshot import SnapshotCompiler
from repro.core.specialize import SpecializeOptions
from repro.core.stats import TieringStats
from repro.ir.module import Module
from repro.ir.verifier import verify_enabled_by_env
from repro.pipeline.profiles import ProfileStore, profile_key
from repro.vm.machine import VM

# Calls a function must accumulate before promotion.  Deliberately low:
# a guest call is expensive relative to the profile bookkeeping, and the
# residual usually wins after a handful of calls.
DEFAULT_THRESHOLD = 8

# How many loop backedges count as one call toward the hot score: a
# function that is entered rarely but spins long loops still promotes
# (at its next call boundary).
BACKEDGE_WEIGHT = 512

# Inlining defaults: a site must have been observed this many times in
# the tier-1 window, with at most this many distinct callees, and each
# callee residual at most this many instructions.
INLINE_MIN_SITE_CALLS = 4
INLINE_MAX_TARGETS = 2
INLINE_MAX_INSTRS = 400

# Fault-containment policy (PR 9).  A contained compile failure
# quarantines the function: promotion is retried with exponential
# backoff measured in *threshold crossings* (the retry is earned by
# fresh heat, not by wall clock — a function nobody calls never retries),
# and after MAX_COMPILE_FAILURES contained failures the function is
# blacklisted to tier 0 permanently.  Guard failures need no breaker:
# each speculation is demoted exactly once (an entry guard by ``deopt``,
# a site guard by ``site-demote``), so a function sees at most one
# event per guard it was ever given.
MAX_COMPILE_FAILURES = 3

_UNSTABLE = object()

# Transition reason -> the TieringStats counter it bumps.
_REASON_COUNTER = {"promote": "promotions", "deopt": "demotions",
                   "blacklist": "blacklists"}


class PromotionError(Exception):
    """A contained engine failure (``EngineResult.error``) re-raised so
    one containment policy also handles in-process exceptions."""


@dataclasses.dataclass
class TierEntry:
    """One tierable guest function, declared by the embedding runtime.

    ``generic`` is the *runnable* generic entry (what guest dispatch
    falls back to and the tier hook watches); ``request`` may target a
    specialization-only variant (e.g. the state-intrinsic interpreter
    body).  ``key`` is the function's guest identity (struct/proto/
    bytecode pointer) and must equal ``args[key_index]`` of a generic
    call; ``result_addr`` is the heap slot guest code dispatches
    through.  ``speculate_args`` lists indices of ``Runtime`` parameters
    eligible for guarded value speculation.
    """

    generic: str
    key: int
    request: SpecializationRequest
    result_addr: int
    key_index: int = 0
    speculate_args: Tuple[int, ...] = ()
    # Stable cross-process identity for persisted heat.  ``key`` is a
    # raw guest pointer, and pointers get *reused*: drop an endpoint and
    # register a different program at the same base and the default
    # ``profile_key(generic, key)`` would adopt the dead program's heat
    # into the new one.  Embedders whose keys can be reused set this to
    # a content-derived token (e.g. a hash of the guest program) so heat
    # follows the program, not the address.
    heat_key: Optional[str] = None
    # Embedder policy hook for speculative inlining: given a candidate
    # callee's installed function name, return whether its body may be
    # spliced into this function's residual (e.g. the JS runtime admits
    # IC stubs only while their shape is still live in the shape table).
    # ``None`` admits every structurally eligible callee.
    inline_gate: Optional[object] = None


@dataclasses.dataclass(eq=False, slots=True)
class FunctionProfile:
    """Per-function tiering state (tier 0 counters and beyond)."""

    entry: TierEntry
    calls: int = 0
    backedges: int = 0
    # High-water marks of counters already published to (or adopted
    # from) a shared ProfileStore: publishes send only the delta beyond
    # these, so fleet heat accumulates without double counts.
    published_calls: int = 0
    published_backedges: int = 0
    tier: int = 0
    installed_name: Optional[str] = None
    table_index: int = 0
    deopts: int = 0
    # arg index -> first observed value, or _UNSTABLE once two calls
    # disagreed (speculation is then off for that argument).
    samples: Dict[int, object] = dataclasses.field(default_factory=dict)
    no_speculate: bool = False
    # Whether the installed residual is entry-guarded: the speculation
    # travels with the function across respecializations until its
    # guard fails.
    speculated: bool = False
    calls_at_promotion: int = 0
    # Per-call-site callee histograms from the tier-1 window:
    # site id -> {table index -> count}.
    site_callees: Dict[int, Dict[int, int]] = dataclasses.field(
        default_factory=dict)
    # Sites whose speculation failed once — never replanned.
    no_inline_sites: set = dataclasses.field(default_factory=set)
    # The inline plan the installed residual was built with.
    inline_plan: tuple = ()
    # The request actually used at promotion (speculation applied);
    # inline (re)specializations derive from it.
    active_request: Optional[SpecializationRequest] = None
    # Fault containment: consecutive contained compile failures, the
    # score this function must reach before promotion is retried
    # (None = not quarantined), and the permanent verdict.
    compile_failures: int = 0
    retry_at_score: Optional[float] = None
    blacklisted: bool = False
    last_error: Optional[str] = None

    def score(self) -> int:
        return self.calls + self.backedges // BACKEDGE_WEIGHT


class TieringController:
    """Owns per-function tier state and drives promotion and deopt.

    One controller serves one module and one live VM.  The AOT flows
    :meth:`register` every function and call :meth:`promote_all`; the
    tiered flows :meth:`attach` it and let the profile decide.
    ``compile_threshold=n > 0`` stages tier 2 (``backend="py"``): a
    promoted function serves ``n`` more calls from tier 1, in its staged
    window, before paying for the backend compile.
    """

    def __init__(self, module: Module,
                 options: Optional[SpecializeOptions] = None,
                 threshold: float = DEFAULT_THRESHOLD,
                 speculate: bool = False,
                 compile_threshold: int = 0,
                 inline: bool = False,
                 inline_min_site_calls: int = INLINE_MIN_SITE_CALLS):
        self.module = module
        self.options = options or SpecializeOptions()
        self.threshold = (DEFAULT_THRESHOLD if threshold is None
                          else threshold)
        self.speculate = speculate
        self.compile_threshold = compile_threshold
        staged = self.options.backend == "py" and compile_threshold > 0
        self._staged_tier2 = staged
        self.inline = inline
        self.inline_min_site_calls = max(1, inline_min_site_calls)
        if inline and not staged:
            # Site histograms only exist while a promoted residual runs
            # on the VM with its dispatch slot unpatched — that *is* the
            # staged tier-1 window.
            raise ValueError(
                "inline=True requires a staged tier-2 window "
                "(backend='py' and compile_threshold > 0)")
        # In staged mode the engine specializes to residual IR only; the
        # backend emit for a function is paid when *it* reaches tier 2.
        compiler_options = (dataclasses.replace(self.options, backend="vm")
                            if staged else self.options)
        self.compiler = SnapshotCompiler(module, compiler_options)
        self.vm: Optional[VM] = None
        self.stats = TieringStats()
        self.entries: List[TierEntry] = []
        self.profiles: Dict[Tuple[str, int], FunctionProfile] = {}
        self._key_index: Dict[str, int] = {}
        self._last_profile: Optional[FunctionProfile] = None
        self._backedges_seen = 0
        # Installed residual name -> owning profile (all installs, old
        # names kept for in-flight frames).
        self._owner: Dict[str, FunctionProfile] = {}

    # ------------------------------------------------------------------
    # The transition choke point (see the module docstring's table).
    # ------------------------------------------------------------------
    def _in_window(self, profile: FunctionProfile) -> bool:
        """Staged tier-1 window: promoted, the tier-2 compile still owed,
        so dispatch must keep flowing through the tier hook."""
        return self._staged_tier2 and profile.tier == 1

    def _transition(self, profile: FunctionProfile, tier: int, reason: str,
                    item=None, pyfunc=None,
                    batch: Optional[Dict[str, object]] = None,
                    helpers: Optional[Dict[str, object]] = None) -> None:
        """Move ``profile`` to ``tier`` and make the VM agree.  ``item``
        is a freshly compiled residual to install (``None`` keeps the
        current one), ``pyfunc`` its tier-2 callable and ``helpers`` the
        helpers it was the first to need (installed with it).  With
        ``batch`` the caller publishes once for the whole batch
        (:meth:`_publish`)."""
        if item is not None:
            profile.installed_name = item.function_name
            profile.table_index = item.table_index
            self._owner[item.function_name] = profile
        name = profile.installed_name
        profile.tier = tier
        window = self._in_window(profile)
        if self.vm is not None:
            self.vm.store_u64(profile.entry.result_addr,
                              profile.table_index if tier and not window
                              else 0)
            if item is not None and profile.speculated:
                # A failed entry guard must land in the *runnable*
                # generic.
                self.vm.deopt_fallbacks[name] = profile.entry.generic
        counter = _REASON_COUNTER.get(reason)
        if counter is not None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        compiled = {} if batch is None else batch
        if pyfunc is not None:
            compiled[name] = pyfunc
            compiled.update(helpers or {})
            self.stats.tier2_installs += 1
        if batch is None:
            # Promotion into a staged window is the one transition after
            # which guest dispatch is exactly what it was (slot still
            # zero, no callable, hook redirect only): links may stay.
            self._publish(compiled,
                          reset_links=not (window and reason == "promote"))

    def _site_window(self) -> frozenset:
        """Residuals in a staged window: the ones whose ``call_indirect``
        sites the VM profiles when inlining is on."""
        return frozenset(p.installed_name for p in self.profiles.values()
                         if self._in_window(p))

    def _publish(self, compiled: Dict[str, object],
                 reset_links: bool = True) -> None:
        """Hand the VM its views after one transition (or one batch):
        hooked generics, site window, installed callables, and exactly
        one call-link reset (``install_compiled`` performs its own)."""
        vm = self.vm
        if vm is None:
            return
        vm.tier_generics = frozenset(self._key_index)
        vm.site_profile_functions = self._site_window()
        if compiled:
            vm.install_compiled(compiled)
        elif reset_links:
            vm.links.invalidate()
        if verify_enabled_by_env():
            self.check_invariants(links_reset=reset_links)

    def check_invariants(self, links_reset: bool = False) -> None:
        """Re-derive the transition table from the live heap
        (``links_reset``: and an empty link table, as right after one)."""
        vm = self.vm
        for profile in self.profiles.values():
            name = profile.installed_name
            slot = vm.load_u64(profile.entry.result_addr)
            if profile.tier == 0 or self._in_window(profile):
                assert slot == 0, \
                    f"{name}: tier {profile.tier}, unpatched, but slot={slot}"
            elif profile.tier == 2:
                assert slot == profile.table_index and name in vm.compiled, \
                    f"{name}: tier 2 but slot={slot} or not compiled"
            assert not (profile.speculated and profile.tier) \
                or name in vm.deopt_fallbacks, \
                f"{name}: speculative without a deopt fallback"
            assert not (profile.blacklisted and profile.tier), \
                f"{name}: blacklisted at tier {profile.tier}"
            assert profile.deopts <= 1, \
                f"{name}: {profile.deopts} entry deopts"
        assert vm.site_profile_functions == self._site_window(), \
            "the VM's site window is not the staged-window residuals"
        assert not links_reset or vm.links.linked_count() == 0, \
            "call links survived a transition"

    # ------------------------------------------------------------------
    # Setup.
    # ------------------------------------------------------------------
    def register(self, entry: TierEntry) -> None:
        """Declare one tierable function (before or after attaching)."""
        index = self._key_index.setdefault(entry.generic, entry.key_index)
        if index != entry.key_index:
            raise ValueError(
                f"{entry.generic}: inconsistent key_index "
                f"({index} vs {entry.key_index})")
        self.entries.append(entry)
        profile = FunctionProfile(entry)
        self.profiles[(entry.generic, entry.key)] = profile
        self._transition(profile, 0, "register")

    def unregister(self, entry: TierEntry) -> None:
        """Retire one registered function (endpoint churn): no call with
        this key is redirected again, no batch includes it, its slot is
        zeroed.  The residual stays in the module (installed names are
        never reused), so in-flight frames are unaffected."""
        profile = self.profiles.pop((entry.generic, entry.key), None)
        if profile is None:
            return
        self.entries.remove(profile.entry)
        if self._last_profile is profile:
            self._last_profile = None
        self._transition(profile, 0, "unregister")

    def attach(self, vm: VM) -> VM:
        """Bind the controller to a live VM and enable profiling."""
        self.vm = vm
        self.compiler.vm = vm
        vm.tier_hook = self._on_call
        vm.deopt_hook = self._on_deopt
        vm.count_backedges = True
        if self.inline:
            vm.site_profile_hook = self._on_site
            vm.site_miss_hook = self._on_site_miss
        # Activating the tier hook changes what generic names dispatch
        # to: drop any links made before attachment.
        self._publish({})
        return vm

    def _compile(self, request: SpecializationRequest, result_addr: int):
        """One request through the engine; a contained failure (nothing
        was applied) surfaces as :class:`PromotionError`."""
        self.compiler.enqueue(request, result_addr)
        item = self.compiler.process_requests()[-1]
        if item.error is not None:
            raise PromotionError(item.error)
        return item

    def _install_promoted(self, profile: FunctionProfile, item,
                          request: SpecializationRequest,
                          batch: Optional[Dict[str, object]] = None) -> None:
        """Promote ``profile`` onto ``item``, compiled from ``request``:
        tier 2 when the engine already emitted its callable (unstaged py
        backend), else tier 1 — which in staged mode opens its window."""
        profile.calls_at_promotion = profile.calls
        profile.active_request = request
        profile.speculated = request is not profile.entry.request
        if profile.speculated:
            self.stats.speculative_promotions += 1
        pyfunc = self.compiler.backend_functions.get(item.function_name)
        self._transition(profile, 1 if pyfunc is None else 2, "promote",
                         item, pyfunc, batch=batch, helpers=item.helpers)

    # ------------------------------------------------------------------
    # The pure-AOT path: promote everything, up front, in one batch.
    # ------------------------------------------------------------------
    def promote_all(self, entries: Optional[List[TierEntry]] = None
                    ) -> List[str]:
        """Compile and install every registered function now, as one
        engine batch — the pure-AOT flow.  ``entries`` restricts the
        batch (heat adoption promotes only the fleet's hot set)."""
        entries = self.entries if entries is None else entries
        names = []
        with self._stalled():
            for entry in entries:
                self.compiler.enqueue(entry.request, entry.result_addr)
            processed = self.compiler.process_requests()
            batch: Dict[str, object] = {}
            for entry, item in zip(entries, processed):
                profile = self.profiles[(entry.generic, entry.key)]
                if item.error is not None:
                    # Contained engine failure for this one function: it
                    # stays on tier 0 (nothing was installed) and enters
                    # quarantine; the rest of the batch installs normally.
                    self._contain_failure(profile, item.error, batch)
                    continue
                self._install_promoted(profile, item, entry.request,
                                       batch=batch)
                names.append(item.function_name)
            self._publish(batch)
        return names

    @contextlib.contextmanager
    def _stalled(self):
        """Time one stall of the guest on compile-and-install work into
        ``stats.promote_seconds``, however the work ends."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stats.promote_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    # Fleet heat: persisted cross-process profiles.
    # ------------------------------------------------------------------
    def publish_heat(self, store: ProfileStore) -> bool:
        """Merge this worker's call/backedge deltas since the last
        publish into the shared heat file.  The high-water marks only
        advance when the merge lands, so a failed publish retains the
        delta for the next attempt."""
        deltas = {}
        pending = []
        for (generic, key), profile in self.profiles.items():
            calls = profile.calls - profile.published_calls
            backedges = profile.backedges - profile.published_backedges
            if calls or backedges:
                heat_key = (profile.entry.heat_key
                            or profile_key(generic, key))
                deltas[heat_key] = {"calls": calls, "backedges": backedges}
                pending.append((profile, calls, backedges))
        if not deltas:
            return True
        if not store.merge(deltas):
            return False
        for profile, calls, backedges in pending:
            # Advance the marks by exactly the delta that was merged —
            # NOT to the live counters, which another thread (or the
            # profiled workload itself, re-entering through a host call
            # during the merge) may have advanced since the snapshot
            # above; those extra counts belong to the *next* publish.
            profile.published_calls += calls
            profile.published_backedges += backedges
        return True

    def adopt_heat(self, store: ProfileStore) -> List[str]:
        """Warm this worker from the fleet's persisted heat: seed every
        registered function's counters (marked already published, so
        never re-contributed) and promote, in one batch, those already
        over the threshold — pure loads against a warm artifact store.
        Returns the installed names of the adopted hot set."""
        heat = store.load()
        if not heat:
            return []
        hot = []
        for entry in self.entries:
            record = heat.get(entry.heat_key
                              or profile_key(entry.generic, entry.key))
            if record is None:
                continue
            profile = self.profiles[(entry.generic, entry.key)]
            profile.calls += record["calls"]
            profile.backedges += record["backedges"]
            profile.published_calls += record["calls"]
            profile.published_backedges += record["backedges"]
            if profile.tier == 0 and self._may_attempt(profile) and \
                    profile.score() >= self.threshold:
                hot.append(entry)
        if not hot:
            return []
        return self.promote_all(entries=hot)

    # ------------------------------------------------------------------
    # Tier-0 profiling hook (VM call boundary).
    # ------------------------------------------------------------------
    def _on_call(self, name: str, args) -> Optional[str]:
        profile = self.profiles.get((name, args[self._key_index[name]]))
        if profile is None:
            return None
        vm = self.vm
        # Attribute loop backedges observed since the last boundary to
        # the most recent cold function (a deliberately lightweight
        # heuristic: exact attribution would need per-frame tracking).
        delta = vm.stats.backedges - self._backedges_seen
        if delta:
            self._backedges_seen = vm.stats.backedges
            if self._last_profile is not None:
                self._last_profile.backedges += delta
        self._last_profile = profile
        profile.calls += 1
        if profile.blacklisted:
            # A containment verdict is final: this function serves tier 0
            # for the rest of the session.
            self.stats.tier0_calls += 1
            return None
        if profile.tier == 1 and self._staged_tier2:
            # Promoted but deliberately unpatched: redirect to the
            # residual, and pay for tier 2 once it proves durable.  A
            # contained failure keeps serving the tier-1 residual and
            # retries the install after backoff.
            if (self._may_attempt(profile)
                    and profile.calls - profile.calls_at_promotion
                    >= self.compile_threshold):
                self._attempt(profile, lambda: self._install_tier2(profile))
                if profile.blacklisted:
                    self.stats.tier0_calls += 1
                    return None
            return profile.installed_name
        if profile.tier != 0:
            return profile.installed_name
        if self.speculate and profile.entry.speculate_args \
                and not profile.no_speculate:
            samples = profile.samples
            for index in profile.entry.speculate_args:
                seen = samples.get(index)
                if seen is None:
                    samples[index] = args[index]
                elif seen is not _UNSTABLE and seen != args[index]:
                    samples[index] = _UNSTABLE
        if profile.score() >= self.threshold and \
                self._may_attempt(profile):
            name = self._promote(profile)
            if name is not None:
                return name
        # Only now is the call certain to execute on the generic
        # interpreter (every earlier path redirected it).
        self.stats.tier0_calls += 1
        return None

    # ------------------------------------------------------------------
    # Fault containment (PR 9): quarantine and blacklist.
    # ------------------------------------------------------------------
    def _may_attempt(self, profile: FunctionProfile) -> bool:
        """Whether containment policy permits a compile attempt now."""
        if profile.blacklisted:
            return False
        if profile.retry_at_score is None:
            return True
        return profile.score() >= profile.retry_at_score

    def _attempt(self, profile: FunctionProfile,
                 compile_and_install: Callable[[], None]) -> bool:
        """One compile attempt, promotion or staged tier-up: an exception
        fails *this attempt only* (:meth:`_contain_failure`), and a
        success clears the quarantine."""
        retrying = profile.compile_failures > 0
        if retrying:
            self.stats.quarantine_retries += 1
        try:
            compile_and_install()
        except Exception as exc:
            self._contain_failure(profile, f"{type(exc).__name__}: {exc}")
            return False
        if retrying:
            self.stats.quarantine_recoveries += 1
        profile.compile_failures = 0
        profile.retry_at_score = None
        return True

    def _promote(self, profile: FunctionProfile) -> Optional[str]:
        """Compile ``profile``'s function and install it at this call
        boundary; returns the installed name (the call redirect), or
        ``None`` — the generic path, always correct — on a failure."""
        def compile_and_install() -> None:
            request = self._speculative_request(profile)
            self._install_promoted(
                profile, self._compile(request, profile.entry.result_addr),
                request)
        with self._stalled():
            if not self._attempt(profile, compile_and_install):
                return None
        return profile.installed_name

    def _contain_failure(self, profile: FunctionProfile, message: str,
                         batch: Optional[Dict[str, object]] = None) -> None:
        """Apply quarantine policy after one contained compile failure;
        the transition re-derives the dispatch slot, which the failed
        attempt's own compile may already have patched."""
        self.stats.compile_failures += 1
        profile.compile_failures += 1
        profile.last_error = message
        # Drop any queued requests the failed attempt left behind so the
        # next (unrelated) promotion does not replay a poisoned batch.
        self.compiler.pending = []
        if profile.compile_failures >= MAX_COMPILE_FAILURES:
            if not profile.blacklisted:
                profile.blacklisted = True
                self._transition(profile, 0, "blacklist", batch=batch)
            return
        if profile.compile_failures == 1:
            self.stats.quarantines += 1
        # Exponential backoff measured in threshold crossings: the Nth
        # consecutive failure defers the retry until the function has
        # earned 2^(N-1) further thresholds' worth of heat.
        backoff = max(1.0, float(self.threshold)) * \
            (2 ** (profile.compile_failures - 1))
        profile.retry_at_score = profile.score() + backoff
        self._transition(profile, profile.tier, "quarantine", batch=batch)

    # ------------------------------------------------------------------
    # Promotion.
    # ------------------------------------------------------------------
    def _speculative_request(self, profile: FunctionProfile
                             ) -> SpecializationRequest:
        """``entry.request``, or a guarded copy with each stable sample
        folded as a constant."""
        entry = profile.entry
        request = entry.request
        if not (self.speculate and entry.speculate_args
                and not profile.no_speculate):
            return request
        modes = list(request.args)
        speculated = False
        for index in entry.speculate_args:
            value = profile.samples.get(index)
            if value is None or value is _UNSTABLE:
                continue
            if isinstance(modes[index], Runtime):
                modes[index] = SpeculatedConst(value)
                speculated = True
        if not speculated:
            return request
        return dataclasses.replace(
            request, args=modes,
            specialized_name=request.name() + ".guarded")

    def _install_tier2(self, profile: FunctionProfile) -> None:
        """Close the staged window: compile the residual to tier 2 —
        first respecialized with the inline plan its site histograms
        earned, if any — and patch the slot.  A failed compile raises
        and installs nothing: the window stays open."""
        plan = self._build_plan(profile) if self.inline else ()
        self._respecialize(profile, plan, "tier2", recompile=bool(plan))
        self.stats.inline_sites_planned += len(plan)

    def _respecialize(self, profile: FunctionProfile, plan: tuple,
                      reason: str, recompile: bool) -> None:
        """Reinstall ``profile`` under inline ``plan`` — a fresh residual
        if ``recompile``, else the installed one — with its tier-2
        callable when that is owed (reason ``tier2``) or was held.
        Nothing is installed unless every compile succeeded."""
        name, item = profile.installed_name, None
        if recompile:
            # An empty plan is exactly the base residual's request, so
            # the artifact store serves it when ``cache_dir`` is set.
            item = self._compile(
                dataclasses.replace(profile.active_request,
                                    inline_plan=plan),
                profile.entry.result_addr)
            name = item.function_name
        pyfunc = helpers = None
        if reason == "tier2" or profile.tier == 2:
            helpers = self.compiler.compile_backend([name])
            pyfunc = helpers.pop(name, None)
            if pyfunc is None:
                raise PromotionError(f"tier-2 emit failed for {name}")
        profile.inline_plan = plan
        self._transition(profile, 2 if pyfunc is not None else profile.tier,
                         reason, item, pyfunc, helpers=helpers)

    # ------------------------------------------------------------------
    # Speculative inlining (plan building and per-site demotion).
    # ------------------------------------------------------------------
    def _inlinable_target(self, profile: FunctionProfile, index: int
                          ) -> Optional[Tuple[int, str]]:
        """Vet one observed callee table index; ``None`` rejects the
        whole site (the guard must cover every hot callee, or it would
        just miss its way to a demotion)."""
        if not (0 < index < len(self.module.table)):
            return None
        name = self.module.table[index]
        if name is None:
            return None
        callee = self.module.functions.get(name)
        if callee is None:
            return None
        if index == profile.table_index:
            return None  # self-recursion only grows the body
        try:
            if callee.entry is None or \
                    callee.num_instrs() > INLINE_MAX_INSTRS:
                return None
        except Exception:
            return None  # a stored body that failed its first read
        gate = profile.entry.inline_gate
        if gate is not None and not gate(name):
            return None
        return index, function_fingerprint(callee)

    def _build_plan(self, profile: FunctionProfile) -> tuple:
        """Turn the tier-1 window's site histograms into an inline plan
        (deterministically ordered by site id)."""
        plan = []
        for site in sorted(profile.site_callees):
            if site in profile.no_inline_sites:
                continue
            hist = profile.site_callees[site]
            if sum(hist.values()) < self.inline_min_site_calls:
                continue
            if len(hist) > INLINE_MAX_TARGETS:
                self.stats.inline_candidates_rejected += 1
                continue
            targets = [self._inlinable_target(profile, index)
                       for index in sorted(hist)]
            if not targets or None in targets:
                self.stats.inline_candidates_rejected += 1
                continue
            plan.append((site, tuple(targets)))
        return tuple(plan)

    def _on_site(self, name: str, site: int, index: int) -> None:
        """VM site-profiling hook: one ``call_indirect`` dispatch inside
        a residual in its tier-1 window."""
        hist = self._owner[name].site_callees.setdefault(site, {})
        hist[index] = hist.get(index, 0) + 1

    def _on_site_miss(self, name: str, site: int) -> None:
        """VM notification from an inline site guard: the callee at
        ``site`` was not in the speculated set.  Execution continued on
        the out-of-line call, so only the plan needs repair."""
        self.stats.site_misses += 1
        self._demote_site(name, site)

    def _demote_site(self, name: str, site: int) -> None:
        """Retire one speculation site of the function that owns
        residual ``name``, exactly once: respecialize with the remaining
        plan; every other inlined site survives.  Contained: if the
        repair compile crashes, the *old* residual keeps serving (this
        site's guard now always takes the slow path — slower, never
        wrong) and the failure feeds the quarantine policy."""
        profile = self._owner.get(name)
        if profile is None or site in profile.no_inline_sites:
            return  # in-flight frames of the retired residual
        with self._stalled():
            profile.no_inline_sites.add(site)
            self.stats.site_demotions += 1
            try:
                plan = tuple(e for e in profile.inline_plan if e[0] != site)
                self._respecialize(profile, plan, "site-demote",
                                   recompile=True)
            except Exception as exc:
                self._contain_failure(profile,
                                      f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Deopt (entry-guard failure at a call boundary).
    # ------------------------------------------------------------------
    def _on_deopt(self, name: str) -> None:
        """An entry guard of residual ``name`` failed; the VM re-runs the
        call generically once this returns.  (A site guard never gets
        here: its miss resumes in place and reaches
        :meth:`_on_site_miss`.)"""
        self.stats.deopts += 1
        # The VM has just rolled its counters back to the pre-call
        # snapshot, which can sit *below* the controller's backedge
        # high-water mark; without a resync the next call boundary would
        # compute a negative delta and drain heat from whichever profile
        # happened to be most recent.
        self._backedges_seen = min(self._backedges_seen,
                                   self.vm.stats.backedges)
        profile = self._owner.get(name)
        if profile is None or profile.installed_name != name \
                or not (profile.speculated and profile.tier):
            # Already demoted (an in-flight frame hit the same retired
            # residual); the VM's fallback mapping still routes it to
            # the generic body, nothing more to do.
            return
        profile.deopts += 1
        profile.no_speculate = True
        profile.speculated = False
        self._transition(profile, 0, "deopt")
        # Respecialize without the failed speculation and install the
        # plain residual; the deopted call itself runs generically (the
        # VM re-dispatches it after this hook returns).  Contained: a
        # crashed replacement compile leaves the function on tier 0,
        # quarantined.
        self._promote(profile)

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def tier_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {0: 0, 1: 0, 2: 0}
        for profile in self.profiles.values():
            counts[profile.tier] = counts.get(profile.tier, 0) + 1
        return counts

    def report(self) -> str:
        """Human-readable per-function tier table (examples, benches)."""
        lines = ["function".ljust(34) + "tier  calls  backedges  deopts"]
        for (generic, key), profile in sorted(self.profiles.items()):
            label = profile.installed_name or f"{generic}[{key:#x}]"
            lines.append(f"{label[:33].ljust(34)}{profile.tier:>4}"
                         f"{profile.calls:>7}{profile.backedges:>11}"
                         f"{profile.deopts:>8}")
        counts = self.tier_counts()
        stats = self.stats
        lines.append(
            f"tiers: {counts.get(0, 0)}/t0 {counts.get(1, 0)}/t1 "
            f"{counts.get(2, 0)}/t2 | promotions={stats.promotions} "
            f"(speculative={stats.speculative_promotions}) "
            f"deopts={stats.deopts} demotions={stats.demotions} "
            f"promote={stats.promote_seconds * 1000:.1f}ms")
        if self.inline:
            lines.append(
                f"inline: sites={stats.inline_sites_planned} "
                f"rejected={stats.inline_candidates_rejected} "
                f"misses={stats.site_misses} "
                f"site_demotions={stats.site_demotions}")
        if stats.compile_failures or stats.blacklists:
            lines.append(
                f"containment: failures={stats.compile_failures} "
                f"quarantines={stats.quarantines} "
                f"retries={stats.quarantine_retries} "
                f"recoveries={stats.quarantine_recoveries} "
                f"blacklists={stats.blacklists}")
        estats = self.compiler.engine.stats
        if estats.requests_failed or estats.store_degraded:
            lines.append(
                f"engine: failed={estats.requests_failed} "
                f"store_degraded={bool(estats.store_degraded)} "
                f"store_write_failures={estats.store_write_failures}")
        return "\n".join(lines)
