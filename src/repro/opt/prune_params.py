"""Redundant block-parameter pruning.

A block parameter is redundant when every predecessor passes the same
value for it (or the parameter itself, for self-loops).  Removing one
may expose more, so the pass iterates to a fixpoint.  This is the
cleanup that turns the specializer's conservatively-created parameters
into the "minimal cut" shape of the paper's S3.4.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.function import Function
from repro.opt.util import resolve, substitute_values


def prune_block_params(func: Function) -> int:
    removed_total = 0
    substitution: Dict[int, int] = {}
    while True:
        # Gather, for each block, the argument lists from all incoming
        # edges (positionally).
        incoming: Dict[int, List[tuple]] = {bid: [] for bid in func.blocks}
        for block in func.blocks.values():
            if block.terminator is None:
                continue
            for call in block.terminator.targets():
                if call.block in incoming:
                    incoming[call.block].append(call)

        removed = 0
        for bid, block in func.blocks.items():
            if bid == func.entry or not block.params:
                continue
            calls = incoming[bid]
            if not calls:
                continue
            keep = []
            replacement: Dict[int, int] = {}
            for index, (param, ty) in enumerate(block.params):
                args = {resolve(substitution, call.args[index])
                        for call in calls}
                args.discard(param)  # self-reference (loop-carried)
                if len(args) == 1:
                    replacement[param] = args.pop()
                else:
                    keep.append(index)
            if len(keep) == len(block.params):
                continue
            # A parameter can only be replaced if its value dominates this
            # block; a value passed identically on all edges does (see the
            # dominance argument in repro.core.state's docstring).
            block.params = [block.params[i] for i in keep]
            for call in calls:
                call.args = tuple(call.args[i] for i in keep)
            substitution.update(replacement)
            removed += len(replacement)
        removed_total += removed
        if not removed:
            break
    substitute_values(func, substitution)
    return removed_total
