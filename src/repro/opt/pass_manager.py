"""The verifying pass manager: named pass registration, configurable
pipelines, dirty-set fixpoint scheduling, and per-pass change/timing
statistics.

A *pass* is a function ``(Function) -> int`` returning how many changes
it made; zero means the function is already a fixpoint of that pass.
Passes register under a stable name via :func:`register_pass` and are
assembled into named pipelines (:data:`PIPELINES`) that the
:class:`PassManager` schedules round by round until no pass reports a
change or ``max_rounds`` is exhausted.  Exhausting the cap while passes
still report changes is recorded in
:class:`~repro.core.stats.PipelineStats.fixpoint_cap_hits`
(and warned about in verify mode) rather than silently dropped.

**Dirty-set scheduling.**  Each registered pass declares the change
*kinds* it ``invalidates`` (what its edits may enable elsewhere) and the
kinds it ``depends`` on (what could create new opportunities for it).
Within a round, a pass runs only if some earlier change dirtied one of
its input kinds; a pass that would provably report zero changes is
skipped and counted in ``PipelineStats.passes_skipped``.  A round where
every executed pass reports zero changes ends the fixpoint, exactly as
before.

**Work detectors.**  Coarse kinds alone cannot prove much — nearly every
pass depends on ``values``/``uses`` and nearly every pass dirties them —
so each built-in pass also registers a *sound work detector*
(``workcheck``): a cheap single-sweep predicate that returns ``False``
only when a full run would provably report zero changes (its condition
mirrors, or over-approximates, the pass's own first-change test; see the
``*_has_work`` functions next to each pass).  A pass whose input kinds
are dirty still gets skipped when its detector finds no candidate —
this is what eliminates both the no-op passes of the first round and
the all-zero verification round at the end of every fixpoint.  Detector
skips are counted in ``passes_skipped_nowork`` and their cost in
``workcheck_seconds``.

Because a skipped pass is one whose exhaustive run would have been a
no-op, the sequence of IR mutations — and therefore the final function
— is byte-identical to running every pass every round;
``PassManager(..., exhaustive=True)`` forces the latter and is used by
the determinism tier to assert exactly that, and verify mode re-runs
every *skipped* pass on a clone and fails loudly if it would have
changed anything.  Declared kinds:

========  ==========================================================
consts    constant definitions created, or operands becoming constant
values    uses rewritten to other values (substitution)
uses      instructions/operands removed (use counts dropped)
cfg       blocks removed/merged or edges retargeted/folded
params    block parameter lists or call argument shapes changed
loads     memory operations removed or rewritten
========  ==========================================================

In verify mode — ``PassManager(..., verify=True)`` or the
``REPRO_OPT_VERIFY=1`` environment variable — the IR verifier runs after
every pass that changed the function, so a miscompiling rewrite is
caught at its source with the pass name attached.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.stats import PipelineStats
from repro.ir.function import Function
from repro.ir.verify import verify_after_pass, verify_enabled_by_env

PassFn = Callable[[Function], int]

# Every change kind the scheduler tracks; passes with no declaration are
# treated as reading and invalidating everything (always sound).
KINDS: FrozenSet[str] = frozenset(
    {"consts", "values", "uses", "cfg", "params", "loads"})


WorkCheck = Callable[[Function], bool]


@dataclasses.dataclass(frozen=True)
class PassInfo:
    """A registered pass plus its dirty-set scheduling metadata.

    ``workcheck`` is an optional *sound work detector*: a cheap predicate
    that may return ``False`` only when a full run of the pass on the
    current function would provably report zero changes (returning
    ``True`` spuriously is allowed — it merely costs a no-op run).  The
    scheduler consults it after the dirty-kind filter, so expensive
    passes are skipped even in rounds where coarse kinds are dirty."""

    fn: PassFn
    depends: FrozenSet[str] = KINDS
    invalidates: FrozenSet[str] = KINDS
    workcheck: Optional[WorkCheck] = None


_REGISTRY: Dict[str, PassInfo] = {}


def register_pass(name: str, fn: Optional[PassFn] = None, *,
                  depends: Optional[Iterable[str]] = None,
                  invalidates: Optional[Iterable[str]] = None,
                  workcheck: Optional[WorkCheck] = None):
    """Register ``fn`` under ``name``; usable as a decorator.

    ``depends``/``invalidates`` are subsets of :data:`KINDS`; omitting
    either defaults to the conservative "everything" set.  ``workcheck``
    is the optional sound work detector (see :class:`PassInfo`).
    """
    def check(kinds) -> FrozenSet[str]:
        if kinds is None:
            return KINDS
        kinds = frozenset(kinds)
        unknown = kinds - KINDS
        if unknown:
            raise ValueError(f"unknown change kinds {sorted(unknown)}")
        return kinds

    dep, inv = check(depends), check(invalidates)
    if fn is not None:
        _REGISTRY[name] = PassInfo(fn, dep, inv, workcheck)
        return fn

    def decorator(inner: PassFn) -> PassFn:
        _REGISTRY[name] = PassInfo(inner, dep, inv, workcheck)
        return inner

    return decorator


def get_pass(name: str) -> PassFn:
    try:
        return _REGISTRY[name].fn
    except KeyError:
        raise KeyError(
            f"unknown pass {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def get_pass_info(name: str) -> PassInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown pass {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def available_passes() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# Named pipelines: "default" is the full mid-end, "none" runs nothing.
PIPELINES: Dict[str, Tuple[str, ...]] = {
    "none": (),
    "default": ("fold", "copyprop", "gvn", "prune-params", "simplify-cfg",
                "load-forward", "dce"),
}
DEFAULT_PIPELINE = "default"

PassSpec = Union[str, Tuple[str, PassFn]]


class PassManager:
    """Schedules a pipeline of passes over functions to a fixpoint.

    ``passes`` is a pipeline name from :data:`PIPELINES`, or an iterable
    of pass names and/or ``(name, fn)`` pairs (the latter bypass the
    registry, which keeps ad-hoc test passes out of the global table,
    and get conservative run-always metadata).  ``verify=None`` defers
    to the ``REPRO_OPT_VERIFY`` environment variable.  ``stats`` may be
    a shared :class:`PipelineStats` to accumulate over many functions.
    ``exhaustive=True`` disables dirty-set skipping (every pass runs
    every round); the output is identical either way — the flag exists
    so the determinism tier can assert that.
    """

    def __init__(self, passes: Union[str, Iterable[PassSpec], None] = None,
                 max_rounds: int = 6,
                 verify: Optional[bool] = None,
                 stats: Optional[PipelineStats] = None,
                 exhaustive: bool = False):
        if passes is None:
            passes = DEFAULT_PIPELINE
        if isinstance(passes, str):
            if passes not in PIPELINES:
                raise KeyError(
                    f"unknown pipeline {passes!r}; available: "
                    f"{', '.join(sorted(PIPELINES))}")
            passes = PIPELINES[passes]
        self.passes: List[Tuple[str, PassInfo]] = []
        for spec in passes:
            if isinstance(spec, str):
                self.passes.append((spec, get_pass_info(spec)))
            else:
                name, fn = spec
                self.passes.append((name, PassInfo(fn)))
        self.max_rounds = max_rounds
        self.verify = verify_enabled_by_env() if verify is None else verify
        self.stats = stats if stats is not None else PipelineStats()
        self.exhaustive = exhaustive

    def run(self, func: Function, module=None) -> PipelineStats:
        """Optimize one function in place; returns the (shared) stats."""
        from repro.opt.simplify_cfg import remove_unreachable_blocks

        stats = self.stats
        start = time.perf_counter()
        stats.runs += 1
        stats.instrs_before += func.num_instrs()
        stats.blocks_before += func.num_blocks()

        # Prepass: passes assume operand-reachability invariants that
        # unreachable specializer debris need not satisfy.
        remove_unreachable_blocks(func)
        if self.verify:
            verify_after_pass(func, module, "remove-unreachable")

        # Dirty-set scheduling state: the change kinds that accumulated
        # since each pass last ran.  Everything starts dirty, so round 1
        # runs the full pipeline exactly like the exhaustive schedule.
        pending: Dict[str, set] = {name: set(KINDS)
                                   for name, _ in self.passes}
        rounds = 0
        changed = 0
        while rounds < self.max_rounds:
            rounds += 1
            changed = 0
            for name, info in self.passes:
                pass_stats = stats.pass_stats(name)
                if not self.exhaustive and \
                        not (pending[name] & info.depends):
                    # No change since this pass's last clean run could
                    # have created work for it: running it would report
                    # zero changes (its declared inputs are untouched).
                    pass_stats.skips += 1
                    stats.passes_skipped += 1
                    if self.verify:
                        self._assert_noop(func, name, info, "kind-clean")
                    continue
                if not self.exhaustive and info.workcheck is not None:
                    check_start = time.perf_counter()
                    has_work = info.workcheck(func)
                    stats.workcheck_seconds += \
                        time.perf_counter() - check_start
                    if not has_work:
                        # The detector proved a run would report zero
                        # changes on the current IR; record that the
                        # pass observed this state (pending cleared)
                        # exactly as a real zero-change run would.
                        pending[name].clear()
                        pass_stats.skips += 1
                        stats.passes_skipped += 1
                        stats.passes_skipped_nowork += 1
                        if self.verify:
                            self._assert_noop(func, name, info, "no-work")
                        continue
                pending[name].clear()
                pass_start = time.perf_counter()
                delta = info.fn(func)
                pass_stats.runs += 1
                pass_stats.changes += delta
                pass_stats.seconds += time.perf_counter() - pass_start
                changed += delta
                if delta:
                    for other, _ in self.passes:
                        pending[other].update(info.invalidates)
                if self.verify and delta:
                    verify_after_pass(func, module, name)
            if not changed:
                break
        if changed:
            # max_rounds exhausted while passes still reported changes:
            # the fixpoint was NOT reached.  Record it; never drop it.
            stats.fixpoint_cap_hits += 1
            if self.verify:
                warnings.warn(
                    f"{func.name}: optimization fixpoint not reached "
                    f"after {self.max_rounds} rounds "
                    f"({changed} changes still pending)",
                    RuntimeWarning, stacklevel=2)

        stats.rounds += rounds
        stats.instrs_after += func.num_instrs()
        stats.blocks_after += func.num_blocks()
        stats.seconds += time.perf_counter() - start
        return stats

    @staticmethod
    def _assert_noop(func: Function, name: str, info: PassInfo,
                     why: str) -> None:
        """Verify-mode self-check: a skipped pass must be a no-op.

        Runs the pass on a deep clone and fails loudly if it would have
        changed anything — catching an unsound work detector or an
        undershooting ``depends`` declaration at its source."""
        from repro.ir.clone import clone_function

        delta = info.fn(clone_function(func))
        if delta:
            raise AssertionError(
                f"{func.name}: pass {name!r} was skipped ({why}) but a "
                f"run would have made {delta} change(s) — unsound "
                f"scheduling metadata or work detector")


def _register_builtin_passes() -> None:
    from repro.opt.copyprop import copyprop_has_work, propagate_copies
    from repro.opt.dce import dce_has_work, eliminate_dead_code
    from repro.opt.fold import fold_constants, fold_has_work
    from repro.opt.gvn import global_value_numbering, gvn_has_work
    from repro.opt.load_forward import forward_loads, load_forward_has_work
    from repro.opt.prune_params import (
        prune_block_params,
        prune_params_has_work,
    )
    from repro.opt.simplify_cfg import (
        fold_uniform_branches,
        remove_unreachable_blocks,
        simplify_cfg,
        simplify_cfg_has_work,
        thread_constant_branches,
        thread_trivial_jumps,
    )

    # Scheduling metadata (see module docstring for the kind glossary).
    # ``depends`` must name every kind whose change could create new
    # work for the pass — undershooting would skip a pass that had real
    # changes to make and is caught by the exhaustive-vs-dirty
    # determinism tier; overshooting merely runs a no-op pass.
    register_pass(
        "fold", fold_constants,
        # New constants and operand substitutions expose folds; folding
        # creates constants (self-triggering across iteration order),
        # folds branches, and drops operand uses.
        depends={"consts", "values"},
        invalidates={"consts", "cfg", "uses"},
        workcheck=fold_has_work)
    register_pass(
        "copyprop", propagate_copies,
        # Identities need constant operands; substitution can chain.
        depends={"consts", "values"},
        invalidates={"values", "uses"},
        workcheck=copyprop_has_work)
    register_pass(
        "gvn", global_value_numbering,
        # Substitution unifies expressions; CFG edits reshape the
        # dominator tree (and thus CSE scopes); constants feed pooling.
        depends={"consts", "values", "cfg"},
        invalidates={"values", "uses"},
        workcheck=gvn_has_work)
    register_pass(
        "load-forward", forward_loads,
        # Address resolution looks through constants and value chains;
        # CFG edits change the meet structure.
        depends={"consts", "values", "cfg", "loads"},
        invalidates={"values", "uses", "loads"},
        workcheck=load_forward_has_work)
    register_pass(
        "prune-params", prune_block_params,
        # A param becomes prunable when incoming args unify (via
        # substitution or edge removal) or another param was pruned.
        depends={"values", "cfg", "params"},
        invalidates={"params", "values", "uses", "cfg"},
        workcheck=prune_params_has_work)
    register_pass(
        "simplify-cfg", simplify_cfg,
        # Threading keys on use counts (DCE enables it), constant
        # selectors, param/arg shapes, and prior CFG edits.
        depends={"cfg", "consts", "values", "uses", "params"},
        invalidates={"cfg", "values", "uses", "params"},
        workcheck=simplify_cfg_has_work)
    register_pass(
        "dce", eliminate_dead_code,
        # Only dropped uses make instructions newly dead; removing pure
        # instructions only drops more uses.
        depends={"uses"},
        invalidates={"uses"},
        workcheck=dce_has_work)
    # Primitive CFG sub-passes, registered for targeted use and for the
    # run-every-pass-in-isolation property tests (conservative
    # run-always metadata).
    register_pass("remove-unreachable", remove_unreachable_blocks)
    register_pass("thread-jumps", thread_trivial_jumps)
    register_pass("fold-uniform-branches", fold_uniform_branches)
    register_pass("thread-constant-branches", thread_constant_branches)


_register_builtin_passes()
