"""Canonical renumbering of IR functions.

The specializer's fixpoint engine mints value and block ids as it
(re)builds blocks, so the raw numbering encodes the *history* of the
fixpoint computation: how many times each block was re-flowed, in what
order keys were processed, which transient successors were discovered
and later abandoned.  Canonicalization erases that history — blocks are
renumbered in reverse postorder from the entry, values in first-definition
order within that block order, and unreachable debris is dropped — so two
runs that converge to the same fixpoint produce byte-identical printed
IR regardless of worklist policy or revisit counts.

Everything downstream (printer fingerprints, artifact store, backend
emitter) sees a function only after :func:`canonicalize_function`, so
residual bytes can be pinned in goldens and compared across engines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.cfg import reverse_postorder
from repro.ir.function import Block, Function
from repro.ir.instructions import Instr, map_terminator


def canonicalize_function(func: Function) -> Function:
    """Renumber ``func`` in place into canonical form; returns ``func``.

    Blocks: reverse postorder over reachable blocks (entry becomes 0);
    unreachable blocks are removed.  Values: order of first definition
    (block params, then instruction results) walking blocks in the new
    order.  ``value_types`` is rebuilt to cover exactly the surviving
    definitions, so stale ids from abandoned rebuilds disappear.

    Every operand of a reachable block must be defined by a reachable
    block (SSA dominance guarantees this for valid IR); a violation
    raises ``KeyError`` loudly rather than renumbering nonsense.
    """
    if func.entry is None:
        return func
    order = reverse_postorder(func)
    block_map: Dict[int, int] = {bid: i for i, bid in enumerate(order)}
    value_map: Dict[int, int] = {}

    for bid in order:
        block = func.blocks[bid]
        for vid, _ty in block.params:
            if vid not in value_map:
                value_map[vid] = len(value_map)
        for instr in block.instrs:
            if instr.result is not None and instr.result not in value_map:
                value_map[instr.result] = len(value_map)

    new_blocks: Dict[int, Block] = {}
    new_types: Dict[int, object] = {}
    for bid in order:
        block = func.blocks[bid]
        new_block = Block(block_map[bid])
        new_block.params = [(value_map[v], ty) for v, ty in block.params]
        instrs: List[Instr] = []
        for instr in block.instrs:
            result: Optional[int] = (value_map[instr.result]
                                     if instr.result is not None else None)
            instrs.append(Instr(instr.op, result,
                                tuple(value_map[a] for a in instr.args),
                                instr.imm, instr.result_type))
        new_block.instrs = instrs
        new_block.terminator = map_terminator(
            block.terminator, value_map.__getitem__, block_map.__getitem__)
        new_blocks[new_block.id] = new_block

    for old, new in value_map.items():
        new_types[new] = func.value_types[old]

    func.blocks = new_blocks
    func.entry = 0
    func.value_types = new_types
    func._next_value = len(value_map)
    func._next_block = len(order)
    return func
