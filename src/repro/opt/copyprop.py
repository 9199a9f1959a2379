"""Copy propagation.

The IR has no explicit ``mov``, but copies still arise: the specializer
and frontends emit algebraic identities (``iadd x, 0``, ``imul x, 1``,
``iand x, ~0``), and ``select`` collapses to one operand when both arms
agree or the condition is a known constant.  This pass resolves every
such alias by rewriting uses of the result to the source value and
dropping the defining instruction, which in turn exposes more work for
GVN, block-parameter pruning, and DCE.

Soundness: the replacement value is always an operand of the replaced
definition, so its definition dominates the replaced definition and
therefore (by SSA validity) every use being rewritten.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.function import Function
from repro.ir.instructions import MASK64
from repro.opt.util import resolve, substitute_values


def _copy_source(op: str, args: tuple,
                 consts: Dict[int, int]) -> Optional[int]:
    """The value id ``op(args)`` is an alias of, or None."""

    def const(vid: int) -> Optional[int]:
        return consts.get(vid)

    if op == "iadd":
        if const(args[1]) == 0:
            return args[0]
        if const(args[0]) == 0:
            return args[1]
    elif op == "isub":
        if const(args[1]) == 0:
            return args[0]
    elif op == "imul":
        if const(args[1]) == 1:
            return args[0]
        if const(args[0]) == 1:
            return args[1]
    elif op in ("idiv_u", "idiv_s"):
        if const(args[1]) == 1:
            return args[0]
    elif op in ("ior", "ixor", "ishl", "ishr_s", "ishr_u"):
        if const(args[1]) == 0:
            return args[0]
        if op in ("ior", "ixor") and const(args[0]) == 0:
            return args[1]
    elif op == "iand":
        if const(args[1]) == MASK64:
            return args[0]
        if const(args[0]) == MASK64:
            return args[1]
    elif op == "select":
        if args[1] == args[2]:
            return args[1]
        cond = const(args[0])
        if cond is not None:
            return args[1] if cond != 0 else args[2]
    return None


def propagate_copies(func: Function) -> int:
    """Resolve copy-like instructions; returns the number removed."""
    consts: Dict[int, int] = {}
    for block in func.blocks.values():
        for instr in block.instrs:
            if instr.op == "iconst":
                consts[instr.result] = instr.imm

    subst: Dict[int, int] = {}
    removed = 0
    for block in func.blocks.values():
        kept = []
        for instr in block.instrs:
            source = None
            if instr.result is not None and instr.info().pure:
                args = tuple(resolve(subst, a) for a in instr.args)
                source = _copy_source(instr.op, args, consts)
            if source is None:
                kept.append(instr)
            else:
                subst[instr.result] = source
                removed += 1
        block.instrs = kept
    substitute_values(func, subst)
    return removed
