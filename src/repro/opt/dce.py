"""Dead code elimination for pure instructions.

Iterates to a fixpoint: an instruction is dead when it is pure and its
result is referenced by no instruction or terminator.  Block parameters
are handled by :mod:`repro.opt.prune_params` instead (removing one
changes predecessor call shapes).
"""

from __future__ import annotations

from typing import Set

from repro.ir.function import Function
from repro.ir.instructions import OPCODES, terminator_values


def eliminate_dead_code(func: Function) -> int:
    removed_total = 0
    while True:
        used: Set[int] = set()
        for block in func.blocks.values():
            for instr in block.instrs:
                used.update(instr.args)
            if block.terminator is not None:
                used.update(terminator_values(block.terminator))
        removed = 0
        for block in func.blocks.values():
            kept = []
            for instr in block.instrs:
                info = OPCODES[instr.op]
                if (info.pure and instr.result is not None
                        and instr.result not in used):
                    removed += 1
                else:
                    kept.append(instr)
            block.instrs = kept
        removed_total += removed
        if not removed:
            return removed_total
