"""CFG simplification: unreachable-block removal, jump threading, branch
folding, and straight-line block merging.

Jump threading has one rule (:func:`thread_jumps`): an edge into an
empty *forwarder* block whose terminator is decided for that edge — a
``jump``, whatever its arguments, or a ``br_if`` / ``br_table`` on a
constant the edge passes — is retargeted to the decided successor.  A
branch decided in its own block — its selector is a constant, or its
arms agree — is collapsed to a plain jump (:func:`fold_branches`)."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Union

from repro.ir.cfg import reachable_blocks
from repro.ir.function import Block, Function
from repro.ir.instructions import (
    BlockCall,
    BrIf,
    BrTable,
    Jump,
    terminator_values,
)
from repro.opt.util import constants, substitute_values


def remove_unreachable_blocks(func: Function) -> int:
    reachable = reachable_blocks(func)
    dead = [bid for bid in func.blocks if bid not in reachable]
    for bid in dead:
        del func.blocks[bid]
    return len(dead)


def _all_calls(func: Function):
    """Yield (block_id, BlockCall) for every edge in the function."""
    for bid, block in func.blocks.items():
        if block.terminator is None:
            continue
        for call in block.terminator.targets():
            yield bid, call


def merge_straightline(func: Function) -> int:
    """Merge B -> C when B ends in an unconditional jump to C and C's
    only incoming edge is that jump.  C's params are substituted by the
    jump arguments.

    Absorbing C moves C's out-edges to B, so no other block's
    predecessor count changes: one walk with the counts taken up front
    merges every chain into its head."""
    preds = Counter(call.block for _bid, call in _all_calls(func))
    substitution: Dict[int, int] = {}
    merged = 0
    for bid in list(func.blocks):
        block = func.blocks.get(bid)
        while block is not None and isinstance(block.terminator, Jump):
            call = block.terminator.target
            if call.block in (bid, func.entry) or preds[call.block] != 1:
                break
            target = func.blocks.pop(call.block)
            for (param, _ty), arg in zip(target.params, call.args):
                substitution[param] = arg
            block.instrs.extend(target.instrs)
            block.terminator = target.terminator
            merged += 1
    substitute_values(func, substitution)
    return merged


def _decided(term: Union[BrIf, BrTable], value: int) -> BlockCall:
    """The arm a ``br_if`` / ``br_table`` takes on selector ``value``."""
    if isinstance(term, BrIf):
        return term.if_true if value != 0 else term.if_false
    return (term.cases[value] if 0 <= value < len(term.cases)
            else term.default)


def fold_branches(func: Function,
                  consts: Optional[Dict[int, object]] = None) -> int:
    """Collapse a ``br_if`` / ``br_table`` to a plain jump when its
    selector is a constant (``consts``, :func:`~repro.opt.util.constants`
    by default) or when all its arms are the same call; the selector is
    left for DCE."""
    if consts is None:
        consts = constants(func)
    folded = 0
    for block in func.blocks.values():
        term = block.terminator
        if not isinstance(term, (BrIf, BrTable)):
            continue
        selector = term.cond if isinstance(term, BrIf) else term.index
        calls = term.targets()
        if selector in consts:
            block.terminator = Jump(_decided(term, consts[selector]))
        elif all(c.block == calls[0].block and
                 tuple(c.args) == tuple(calls[0].args) for c in calls[1:]):
            block.terminator = Jump(calls[0])
        else:
            continue
        folded += 1
    return folded


def _forwarders(func: Function) -> Dict[int, Block]:
    """The blocks an edge may be threaded past: no instructions, not the
    entry, and every parameter used only by the block's own
    terminator."""
    uses: Counter = Counter()
    for block in func.blocks.values():
        for instr in block.instrs:
            uses.update(instr.args)
        if block.terminator is not None:
            uses.update(terminator_values(block.terminator))
    forwarders = {}
    for bid, block in func.blocks.items():
        if block.instrs or bid == func.entry or block.terminator is None:
            continue
        own = Counter(terminator_values(block.terminator))
        if all(uses[param] == own[param] for param, _ty in block.params):
            forwarders[bid] = block
    return forwarders


def thread_jumps(func: Function,
                 consts: Optional[Dict[int, object]] = None) -> int:
    """Retarget every edge into a forwarder (:func:`_forwarders`) whose
    terminator the edge decides, composing block arguments through the
    forwarder's parameter bindings, and chase chains of them.

    An edge decides a ``jump``, whatever its arguments, and a ``br_if``
    / ``br_table`` whose selector it binds to a constant (``consts``,
    :func:`~repro.opt.util.constants` by default).

    No dominance is needed.  A forwarder F defines nothing, so its
    terminator names only F's parameters, which the edge binds, and
    values defined in blocks that strictly dominate F.  Every path to a
    predecessor of F extends to a path to F, so those blocks also
    dominate each predecessor, and the shortcut edge stays in SSA form;
    by induction so does each step of a chain.

    The rule is stricter than it has to be in one place: a block whose
    parameter is read behind the arm the edge does *not* take is not a
    forwarder, although bypassing it would be SSA-valid.  Such edges
    stay put."""
    forwarders = _forwarders(func)
    if consts is None:
        consts = constants(func)

    def decide(call: BlockCall) -> Optional[BlockCall]:
        """The successor call ``call`` decides, else None."""
        block = forwarders.get(call.block)
        if block is None:
            return None
        term = block.terminator
        binding = {param: arg
                   for (param, _ty), arg in zip(block.params, call.args)}
        if isinstance(term, Jump):
            decided = term.target
        elif isinstance(term, (BrIf, BrTable)):
            selector = term.cond if isinstance(term, BrIf) else term.index
            value = consts.get(binding.get(selector, selector))
            if value is None:
                return None
            decided = _decided(term, value)
        else:
            return None
        return BlockCall(decided.block,
                         tuple(binding.get(a, a) for a in decided.args))

    threaded = 0
    for _bid, call in _all_calls(func):
        composed = None
        seen = {call.block}
        step = decide(call)
        # Chase the chain, stopping on a cycle (a genuinely infinite
        # empty-block loop stays as-is).
        while step is not None and step.block not in seen:
            composed = step
            seen.add(step.block)
            step = decide(step)
        if composed is not None:
            call.block = composed.block
            call.args = composed.args
            threaded += 1
    return threaded


def simplify_cfg(func: Function) -> int:
    changed = remove_unreachable_blocks(func)
    # Neither of the next two touches an instruction, so they share one
    # constants map.
    consts = constants(func)
    changed += thread_jumps(func, consts)
    changed += fold_branches(func, consts)
    changed += remove_unreachable_blocks(func)
    changed += merge_straightline(func)
    return changed
