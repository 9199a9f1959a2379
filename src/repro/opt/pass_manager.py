"""The verifying pass manager: named pass registration, configurable
pipelines, round-robin fixpoint scheduling, and per-pass change/timing
statistics.

A *pass* is a function ``(Function) -> int`` returning how many changes
it made; zero means the function is already a fixpoint of that pass.
Passes register under a stable name via :func:`register_pass` and are
assembled into named pipelines (:data:`PIPELINES`).

**The schedule.**  :class:`PassManager` runs the pipeline round-robin
and stops at quiescence: when every pass of the pipeline, run back to
back, reported zero changes.  A pass is never proven idle ahead of
time; it is run and says so.  The bound is ``max_rounds`` trips through
the pipeline; spending it while some pass still reported a change is
recorded in
:class:`~repro.core.stats.PipelineStats.fixpoint_cap_hits` (and warned
about in verify mode) rather than silently dropped.

In verify mode — ``PassManager(..., verify=True)`` or the
``REPRO_OPT_VERIFY=1`` environment variable — the IR verifier runs after
every pass that changed the function, so a miscompiling rewrite is
caught at its source with the pass name attached.
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.stats import PipelineStats
from repro.ir.function import Function
from repro.ir.verify import verify_after_pass, verify_enabled_by_env

PassFn = Callable[[Function], int]

_REGISTRY: Dict[str, PassFn] = {}


def register_pass(name: str, fn: PassFn) -> None:
    """Register ``fn`` under ``name``."""
    _REGISTRY[name] = fn


def get_pass(name: str) -> PassFn:
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
    registry, which keeps ad-hoc test passes out of the global table).
    ``verify=None`` defers to the ``REPRO_OPT_VERIFY`` environment
    variable.  ``stats`` may be a shared :class:`PipelineStats` to
    accumulate over many functions.
    """

    def __init__(self, passes: Union[str, Iterable[PassSpec], None] = None,
                 max_rounds: int = 6,
                 verify: Optional[bool] = None,
                 stats: Optional[PipelineStats] = None):
        if passes is None:
            passes = DEFAULT_PIPELINE
        if isinstance(passes, str):
            if passes not in PIPELINES:
                raise KeyError(
                    f"unknown pipeline {passes!r}; available: "
                    f"{', '.join(sorted(PIPELINES))}")
            passes = PIPELINES[passes]
        self.passes: List[Tuple[str, PassFn]] = [
            (spec, get_pass(spec)) if isinstance(spec, str) else spec
            for spec in passes]
        self.max_rounds = max_rounds
        self.verify = verify_enabled_by_env() if verify is None else verify
        self.stats = stats if stats is not None else PipelineStats()

    def run(self, func: Function, module=None) -> PipelineStats:
        """Optimize one function in place; returns the (shared) stats."""
        from repro.opt.simplify_cfg import remove_unreachable_blocks

        stats = self.stats
        start = time.perf_counter()
        stats.runs += 1
        stats.instrs_before += func.num_instrs()

        # Prepass: passes assume operand-reachability invariants that
        # unreachable specializer debris need not satisfy.
        remove_unreachable_blocks(func)
        if self.verify:
            verify_after_pass(func, module, "remove-unreachable")

        # Round-robin to quiescence: ``quiet`` counts the zero-change
        # runs since the last change; once it spans the whole pipeline
        # every pass has seen the current IR and had nothing to do.
        n = len(self.passes)
        runs = quiet = 0
        while quiet < n and runs < self.max_rounds * n:
            name, fn = self.passes[runs % n]
            if runs % n == 0:
                stats.rounds += 1
            runs += 1
            pass_stats = stats.pass_stats(name)
            pass_start = time.perf_counter()
            delta = fn(func)
            pass_stats.runs += 1
            pass_stats.changes += delta
            pass_stats.seconds += time.perf_counter() - pass_start
            if delta:
                quiet = 0
                if self.verify:
                    verify_after_pass(func, module, name)
            else:
                quiet += 1
        if quiet < n:
            # max_rounds exhausted while passes still reported changes:
            # the fixpoint was NOT reached.  Record it; never drop it.
            stats.fixpoint_cap_hits += 1
            if self.verify:
                warnings.warn(
                    f"{func.name}: optimization fixpoint not reached "
                    f"after {self.max_rounds} rounds",
                    RuntimeWarning, stacklevel=2)

        stats.instrs_after += func.num_instrs()
        stats.seconds += time.perf_counter() - start
        return stats


def _register_builtin_passes() -> None:
    from repro.opt.copyprop import propagate_copies
    from repro.opt.dce import eliminate_dead_code
    from repro.opt.fold import fold_constants
    from repro.opt.gvn import global_value_numbering
    from repro.opt.load_forward import forward_loads
    from repro.opt.prune_params import prune_block_params
    from repro.opt.simplify_cfg import (
        fold_uniform_branches,
        remove_unreachable_blocks,
        simplify_cfg,
        thread_jumps,
    )

    register_pass("fold", fold_constants)
    register_pass("copyprop", propagate_copies)
    register_pass("gvn", global_value_numbering)
    register_pass("load-forward", forward_loads)
    register_pass("prune-params", prune_block_params)
    register_pass("simplify-cfg", simplify_cfg)
    register_pass("dce", eliminate_dead_code)
    # Primitive CFG sub-passes, registered for targeted use and for the
    # run-every-pass-in-isolation property tests.
    register_pass("remove-unreachable", remove_unreachable_blocks)
    register_pass("thread-jumps", thread_jumps)
    register_pass("fold-uniform-branches", fold_uniform_branches)


_register_builtin_passes()
