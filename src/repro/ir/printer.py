"""Textual printing of IR functions.

The format is stable and used in golden tests (e.g. the Fig. 6 analog,
which checks that a specialized interpreter's CFG follows the bytecode).
It is also the one stored form of a residual: :mod:`repro.ir.parser`
reads it back, so everything it prints must read back exactly.
"""

from __future__ import annotations

from typing import List

from repro.ir.cfg import reverse_postorder
from repro.ir.function import Function, Signature
from repro.ir.instructions import (
    BlockCall,
    BrIf,
    BrTable,
    Instr,
    Jump,
    Ret,
    Trap,
)
from repro.ir.semantics import _bits_ftoi


def float_text(value: float) -> str:
    """An f64 as the text spells it: its ``repr``, but a NaN by its bits
    (``nan:0x…``), because ``repr`` says ``nan`` for every payload."""
    if value != value:
        return f"nan:{_bits_ftoi(value):#018x}"
    return repr(value)


def _fmt_call(call: BlockCall) -> str:
    if not call.args:
        return f"block{call.block}"
    args = ", ".join(f"v{a}" for a in call.args)
    return f"block{call.block}({args})"


def _fmt_imm(instr: Instr) -> str:
    imm = instr.imm
    if imm is None:
        return ""
    if instr.op in ("iconst",):
        return f" {imm}"
    if instr.op in ("fconst",):
        return f" {float_text(imm)}"
    if instr.op == "call":
        return f" @{imm}"
    if instr.op == "call_indirect":
        return f" sig{imm}"
    if instr.op in ("global_get", "global_set"):
        return f" ${imm}"
    if instr.op == "guard":
        return f" expect {imm}"
    if isinstance(imm, int):
        return f" +{imm}" if imm else ""
    return f" {imm!r}"


def _fmt_instr(instr: Instr) -> str:
    parts: List[str] = []
    if instr.result is not None:
        parts.append(f"v{instr.result} = ")
    parts.append(instr.op)
    parts.append(_fmt_imm(instr))
    if instr.args:
        parts.append(" " + ", ".join(f"v{a}" for a in instr.args))
    return "".join(parts)


def _fmt_terminator(term) -> str:
    if isinstance(term, Jump):
        return f"jump {_fmt_call(term.target)}"
    if isinstance(term, BrIf):
        return (f"br_if v{term.cond}, {_fmt_call(term.if_true)}, "
                f"{_fmt_call(term.if_false)}")
    if isinstance(term, BrTable):
        cases = ", ".join(_fmt_call(c) for c in term.cases)
        return (f"br_table v{term.index}, [{cases}], "
                f"default {_fmt_call(term.default)}")
    if isinstance(term, Ret):
        if term.args:
            return "return " + ", ".join(f"v{a}" for a in term.args)
        return "return"
    if isinstance(term, Trap):
        return f"trap {term.message!r}"
    return "<unterminated>"


def print_function(func: Function, order: str = "rpo") -> str:
    """Render a function to text.  ``order`` is ``"rpo"`` (reachable blocks
    in reverse post-order) or ``"id"`` (all blocks by id)."""
    lines: List[str] = []
    params = ", ".join(f"v{v}: {t}" for v, t in func.entry_block().params)
    results = ", ".join(str(t) for t in func.sig.results)
    arrow = f" -> {results}" if results else ""
    lines.append(f"func @{func.name}({params}){arrow} {{")
    if order == "rpo":
        block_ids = reverse_postorder(func)
    else:
        block_ids = sorted(func.blocks)
    for bid in block_ids:
        block = func.blocks[bid]
        if block.params and bid != func.entry:
            params = ", ".join(f"v{v}: {t}" for v, t in block.params)
            lines.append(f"block{bid}({params}):")
        else:
            lines.append(f"block{bid}:")
        for instr in block.instrs:
            lines.append(f"  {_fmt_instr(instr)}")
        lines.append(f"  {_fmt_terminator(block.terminator)}")
    lines.append("}")
    return "\n".join(lines)

