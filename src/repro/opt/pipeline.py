"""The mid-end: one pass list, run to a fixpoint.

A *pass* is a function ``(Function) -> int`` returning how many changes
it made; zero means the function is already a fixpoint of that pass.
:data:`PASSES` is the whole mid-end, in schedule order.

**The schedule.**  :func:`optimize_function` first drops unreachable
blocks (passes assume operand-reachability invariants that unreachable
specializer debris need not satisfy), then runs :data:`PASSES`
round-robin and stops at quiescence: when every pass, run back to back,
reported zero changes.  A pass is never proven idle ahead of time; it
is run and says so.  The bound is :data:`OPT_MAX_ROUNDS` trips through
the list; spending it while some pass still reported a change is
recorded in
:class:`~repro.core.stats.PipelineStats.fixpoint_cap_hits` (and warned
about in verify mode) rather than silently dropped.

``config`` is :attr:`~repro.core.specialize.SpecializeOptions.opt_config`:
``"default"`` runs :data:`PASSES`, ``"none"`` runs the prepass alone.

In verify mode — the ``REPRO_OPT_VERIFY=1`` environment variable — the
IR verifier runs after every pass that changed the function, so a
miscompiling rewrite is caught at its source with the pass name
attached.
"""

from __future__ import annotations

import time
import warnings
from typing import Optional

from repro.core.stats import PipelineStats
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.verifier import (
    VerificationError,
    verify_enabled_by_env,
    verify_function,
)
from repro.opt.dce import eliminate_dead_code
from repro.opt.gvn import global_value_numbering
from repro.opt.load_forward import forward_loads
from repro.opt.prune_params import prune_block_params
from repro.opt.simplify_cfg import remove_unreachable_blocks, simplify_cfg

PASSES = (
    ("gvn", global_value_numbering),
    ("prune-params", prune_block_params),
    ("simplify-cfg", simplify_cfg),
    ("load-forward", forward_loads),
    ("dce", eliminate_dead_code),
)

# The values of ``SpecializeOptions.opt_config``.
OPT_CONFIGS = ("default", "none")

# Trips through PASSES before the fixpoint is given up on.  Part of the
# residual cache key (core/cache.py::options_key): it can change bytes.
OPT_MAX_ROUNDS = 6


def verify_after_pass(func: Function, module: Optional[Module],
                      pass_name: str) -> None:
    """Verify ``func``, attributing any failure to ``pass_name``."""
    try:
        verify_function(func, module)
    except VerificationError as exc:
        raise VerificationError(
            f"IR verification failed after pass {pass_name!r}: "
            f"{exc}") from exc


def optimize_function(func: Function, config: str = "default",
                      module: Optional[Module] = None,
                      stats: Optional[PipelineStats] = None
                      ) -> PipelineStats:
    """Optimize one function in place; returns ``stats`` (a fresh
    :class:`PipelineStats` when None, else the shared one, added to)."""
    if config not in OPT_CONFIGS:
        raise ValueError(f"bad opt_config {config!r}")
    passes = PASSES if config == "default" else ()
    verify = verify_enabled_by_env()
    stats = stats if stats is not None else PipelineStats()
    start = time.perf_counter()
    stats.runs += 1
    stats.instrs_before += func.num_instrs()

    remove_unreachable_blocks(func)
    if verify:
        verify_after_pass(func, module, "remove-unreachable")

    # Round-robin to quiescence: ``quiet`` counts the zero-change runs
    # since the last change; once it spans the whole list every pass
    # has seen the current IR and had nothing to do.
    n = len(passes)
    runs = quiet = 0
    while quiet < n and runs < OPT_MAX_ROUNDS * n:
        name, fn = passes[runs % n]
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
            if verify:
                verify_after_pass(func, module, name)
        else:
            quiet += 1
    if quiet < n:
        # The cap was spent while passes still reported changes: the
        # fixpoint was NOT reached.  Record it; never drop it.
        stats.fixpoint_cap_hits += 1
        if verify:
            warnings.warn(
                f"{func.name}: optimization fixpoint not reached "
                f"after {OPT_MAX_ROUNDS} rounds",
                RuntimeWarning, stacklevel=2)

    stats.instrs_after += func.num_instrs()
    stats.seconds += time.perf_counter() - start
    return stats
