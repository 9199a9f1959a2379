"""The standard post-specialization pass pipeline.

A thin convenience layer over :class:`~repro.opt.pass_manager.PassManager`:
``optimize_function(func)`` runs the default pipeline to a fixpoint
(bounded by ``max_rounds``, with the cap-exhausted case recorded in the
returned :class:`~repro.core.stats.PipelineStats` rather than silently
dropped).  ``config`` selects a named pipeline — ``"default"`` (the full
mid-end) or ``"none"``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.stats import PipelineStats
from repro.ir.function import Function
from repro.ir.module import Module
from repro.opt.pass_manager import DEFAULT_PIPELINE, PassManager


def optimize_function(func: Function, max_rounds: int = 6,
                      config: str = DEFAULT_PIPELINE,
                      module: Optional[Module] = None,
                      stats: Optional[PipelineStats] = None,
                      verify: Optional[bool] = None) -> PipelineStats:
    """Run the named pass pipeline on one function; returns its stats."""
    manager = PassManager(config, max_rounds=max_rounds, verify=verify,
                          stats=stats)
    return manager.run(func, module)
