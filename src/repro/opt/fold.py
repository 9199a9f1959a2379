"""Local constant folding and branch folding.

A simple forward pass per block: tracks which values are known constants
(from ``iconst``/``fconst`` in any block — SSA makes constness global),
folds pure instructions over constants, and folds conditional branches
and branch tables with constant selectors into plain jumps.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.lattice import fold_pure_op
from repro.ir.function import Function
from repro.ir.instructions import (
    OPCODES,
    BrIf,
    BrTable,
    Instr,
    Jump,
)
from repro.ir.types import F64, I64


def fold_constants(func: Function) -> int:
    """Fold constants in place; returns the number of instructions and
    branches folded."""
    consts: Dict[int, object] = {}
    for block in func.blocks.values():
        for instr in block.instrs:
            if instr.op in ("iconst", "fconst"):
                consts[instr.result] = instr.imm

    folded = 0
    for block in func.blocks.values():
        for i, instr in enumerate(block.instrs):
            info = OPCODES[instr.op]
            if not info.pure or instr.result is None:
                continue
            if instr.op in ("iconst", "fconst"):
                continue
            if not all(a in consts for a in instr.args):
                continue
            value = fold_pure_op(instr.op, instr.imm,
                                 [consts[a] for a in instr.args])
            if value is None:
                continue
            ty = instr.result_type
            op = "iconst" if ty == I64 else "fconst"
            block.instrs[i] = Instr(op, instr.result, (), value, ty)
            consts[instr.result] = value
            folded += 1

        term = block.terminator
        if isinstance(term, BrIf) and term.cond in consts:
            target = term.if_true if consts[term.cond] != 0 else term.if_false
            block.terminator = Jump(target)
            folded += 1
        elif isinstance(term, BrTable) and term.index in consts:
            index = consts[term.index]
            if 0 <= index < len(term.cases):
                block.terminator = Jump(term.cases[index])
            else:
                block.terminator = Jump(term.default)
            folded += 1
    return folded
