"""Deep-cloning of IR functions (value ids preserved)."""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.ir.function import Block, Function
from repro.ir.instructions import map_terminator


def clone_function(func: Function, new_name: Optional[str] = None) -> Function:
    """Deep copy of a function.  Value and block ids are preserved, so the
    clone can be transformed (e.g. block splitting) without touching the
    original."""
    clone = Function(new_name or func.name, func.sig)
    clone.entry = func.entry
    clone.value_types = dict(func.value_types)
    clone._next_value = func._next_value
    clone._next_block = func._next_block
    for bid, block in func.blocks.items():
        new_block = Block(bid, list(block.params),
                          [dataclasses.replace(i) for i in block.instrs],
                          map_terminator(block.terminator))
        clone.blocks[bid] = new_block
    return clone
