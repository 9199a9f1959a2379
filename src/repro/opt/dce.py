"""Dead code elimination for pure instructions.

Iterates to a fixpoint: an instruction is dead when it is pure and its
result is referenced by no instruction or terminator.  A dead op that
can trap (``OpInfo.traps``) stays, since the trap is an effect, unless
its operands rule the trap out.  Block parameters are handled by
:mod:`repro.opt.prune_params` instead (removing one changes predecessor
call shapes).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.ir.function import Function
from repro.ir.instructions import OPCODES, Instr, terminator_values
from repro.ir.semantics import PURE_FNS, VMTrap
from repro.opt.util import constants


def _cannot_trap(instr: Instr, consts: Dict[int, object]) -> bool:
    """The trap of a ``traps`` op is decided by its last operand alone,
    so a constant there on which the row runs (with itself as every
    other operand too) rules it out: a nonzero divisor, a finite
    float."""
    decider = instr.args[-1]
    if decider not in consts:
        return False
    try:
        PURE_FNS[instr.op](*[consts[decider]] * len(instr.args))
    except VMTrap:
        return False
    return True


def eliminate_dead_code(func: Function) -> int:
    consts = constants(func)
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
                        and instr.result not in used
                        and (not info.traps
                             or _cannot_trap(instr, consts))):
                    removed += 1
                else:
                    kept.append(instr)
            block.instrs = kept
        removed_total += removed
        if not removed:
            return removed_total
