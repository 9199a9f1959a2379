"""CFG simplification: unreachable-block removal, jump threading, and
straight-line block merging.

Beyond the classic trivial-forwarder threading and straight-line
merging, this module threads *conditional* control flow: an edge that
passes a constant into an empty block whose terminator branches on that
block parameter is retargeted straight to the decided successor
(:func:`thread_constant_branches`), and branches whose arms agree are
collapsed to plain jumps (:func:`fold_uniform_branches`)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.cfg import reachable_blocks
from repro.ir.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import (
    BlockCall,
    BrIf,
    BrTable,
    Jump,
    terminator_values,
)
from repro.opt.util import substitute_values


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
    """Merge B -> C when B ends in an argless-unconditional jump to C and
    C's only incoming edge is that jump.  C's params are substituted by
    the jump arguments."""
    merged = 0
    substitution: Dict[int, int] = {}
    while True:
        pred_count: Dict[int, int] = {bid: 0 for bid in func.blocks}
        for _bid, call in _all_calls(func):
            pred_count[call.block] = pred_count.get(call.block, 0) + 1

        did_merge = False
        for bid in list(func.blocks.keys()):
            block = func.blocks.get(bid)
            if block is None:
                continue
            term = block.terminator
            if not isinstance(term, Jump):
                continue
            target_id = term.target.block
            if target_id == bid or target_id == func.entry:
                continue
            if pred_count.get(target_id, 0) != 1:
                continue
            target = func.blocks[target_id]
            for (param, _ty), arg in zip(target.params, term.target.args):
                substitution[param] = arg
            block.instrs.extend(target.instrs)
            block.terminator = target.terminator
            del func.blocks[target_id]
            merged += 1
            did_merge = True
            break  # pred counts changed; recompute
        if not did_merge:
            break
    substitute_values(func, substitution)
    return merged


def _forwarder_map(func: Function) -> Dict[int, Tuple[int, List[int]]]:
    """Map of trivial forwarding blocks: id -> (target, arg indices).

    A block E is a trivial forwarder when it has no instructions and
    ends in ``jump D(args)`` where every arg is one of E's own
    parameters.  A forwarder's parameter may only be used inside its own
    jump arguments: any other use relies on the block staying on the
    path (dominance), so the block cannot be bypassed."""
    use_counts: Dict[int, int] = {}
    for block in func.blocks.values():
        for instr in block.instrs:
            for arg in instr.args:
                use_counts[arg] = use_counts.get(arg, 0) + 1
        if block.terminator is not None:
            for value in terminator_values(block.terminator):
                use_counts[value] = use_counts.get(value, 0) + 1

    forwarders: Dict[int, Tuple[int, List[int]]] = {}
    for bid, block in func.blocks.items():
        if block.instrs or not isinstance(block.terminator, Jump):
            continue
        call = block.terminator.target
        if call.block == bid:
            continue
        param_index = {v: i for i, (v, _) in enumerate(block.params)}
        indices = []
        ok = True
        for arg in call.args:
            if arg in param_index:
                indices.append(param_index[arg])
            else:
                ok = False
                break
        if ok:
            # Every param must be used exactly as often as it appears in
            # this block's own jump arguments — no external uses.
            own_uses: Dict[int, int] = {}
            for arg in call.args:
                own_uses[arg] = own_uses.get(arg, 0) + 1
            for param, _ty in block.params:
                if use_counts.get(param, 0) != own_uses.get(param, 0):
                    ok = False
                    break
        if ok:
            forwarders[bid] = (call.block, indices)
    return forwarders


def thread_trivial_jumps(func: Function) -> int:
    """Retarget edges that pass through an empty forwarding block (see
    :func:`_forwarder_map` for the forwarder condition)."""
    threaded = 0
    forwarders = _forwarder_map(func)

    def final_target(bid: int, args: tuple, depth: int = 0):
        if depth > len(func.blocks) or bid not in forwarders:
            return bid, args
        target, indices = forwarders[bid]
        new_args = tuple(args[i] for i in indices)
        return final_target(target, new_args, depth + 1)

    for _bid, call in _all_calls(func):
        new_block, new_args = final_target(call.block, tuple(call.args))
        if new_block != call.block or new_args != tuple(call.args):
            call.block = new_block
            call.args = new_args
            threaded += 1
    return threaded


def fold_uniform_branches(func: Function) -> int:
    """Collapse conditional terminators whose arms are identical.

    ``br_if v, T(args), T(args)`` and a ``br_table`` whose cases and
    default all agree become plain jumps; the condition value is left
    for DCE."""
    folded = 0
    for block in func.blocks.values():
        term = block.terminator
        if isinstance(term, BrIf):
            if (term.if_true.block == term.if_false.block and
                    tuple(term.if_true.args) == tuple(term.if_false.args)):
                block.terminator = Jump(term.if_true)
                folded += 1
        elif isinstance(term, BrTable):
            calls = list(term.cases) + [term.default]
            first = calls[0]
            if all(c.block == first.block and
                   tuple(c.args) == tuple(first.args) for c in calls[1:]):
                block.terminator = Jump(first)
                folded += 1
    return folded


def thread_constant_branches(func: Function) -> int:
    """Jump threading through per-edge-constant conditional forwarders.

    When an edge passes a constant for a parameter of an empty block
    whose terminator branches on that parameter, the branch outcome is
    decided *for that edge* even though the block itself cannot be
    folded (other predecessors may pass different values).  The edge is
    retargeted straight to the decided successor, composing block
    arguments through the forwarder's parameter bindings.

    Branch arguments of the forwarder that are not its own parameters
    are only carried along when their definitions dominate the
    retargeted predecessor, preserving SSA validity."""
    consts: Dict[int, int] = {}
    def_block: Dict[int, int] = {}
    for bid, block in func.blocks.items():
        for param, _ty in block.params:
            def_block[param] = bid
        for instr in block.instrs:
            if instr.result is not None:
                def_block[instr.result] = bid
            if instr.op == "iconst":
                consts[instr.result] = instr.imm
    domtree = DominatorTree(func)

    def decide(target: BlockCall) -> Optional[BlockCall]:
        """One threading step: the decided successor call of ``target``
        when it names an empty conditional forwarder with a constant
        selector on this edge, else None."""
        block = func.blocks.get(target.block)
        if block is None or block.instrs or target.block == func.entry:
            return None
        term = block.terminator
        if not isinstance(term, (BrIf, BrTable)):
            return None
        binding = {param: arg
                   for (param, _ty), arg in zip(block.params, target.args)}
        selector = term.cond if isinstance(term, BrIf) else term.index
        selector = binding.get(selector, selector)
        value = consts.get(selector)
        if value is None:
            return None
        if isinstance(term, BrIf):
            decided = term.if_true if value != 0 else term.if_false
        else:
            decided = (term.cases[value] if 0 <= value < len(term.cases)
                       else term.default)
        return BlockCall(decided.block,
                         tuple(binding.get(a, a) for a in decided.args))

    threaded = 0
    for bid, block in list(func.blocks.items()):
        term = block.terminator
        if term is None:
            continue
        for call in term.targets():
            composed = None
            seen = {call.block}
            step = decide(call)
            # Chase chains of decided forwarders, stopping on a cycle
            # (a genuinely infinite empty-block loop stays as-is).
            while step is not None and step.block not in seen:
                composed = step
                seen.add(step.block)
                step = decide(step)
            if composed is None:
                continue
            # Arguments that are not forwarder parameters must dominate
            # the predecessor for the shortcut edge to stay in SSA form.
            ok = True
            for arg in composed.args:
                dblock = def_block.get(arg)
                if dblock is None or not domtree.is_reachable(dblock) \
                        or not domtree.is_reachable(bid) \
                        or not domtree.dominates(dblock, bid):
                    ok = False
                    break
            if not ok:
                continue
            call.block = composed.block
            call.args = tuple(composed.args)
            threaded += 1
            # Retargeting changes the path structure; recompute dominance
            # so later decisions in this sweep never use stale facts.
            domtree = DominatorTree(func)
    return threaded


def simplify_cfg(func: Function) -> int:
    changed = remove_unreachable_blocks(func)
    changed += thread_trivial_jumps(func)
    changed += fold_uniform_branches(func)
    changed += thread_constant_branches(func)
    changed += remove_unreachable_blocks(func)
    changed += merge_straightline(func)
    return changed
