"""Shared utilities for optimizer passes."""

from __future__ import annotations

from typing import Dict

from repro.ir.function import Function
from repro.ir.instructions import map_terminator


def constants(func: Function) -> Dict[int, object]:
    """value id -> immediate of every ``iconst`` / ``fconst`` in ``func``.
    SSA makes constness global, so one map serves every block."""
    return {instr.result: instr.imm
            for block in func.blocks.values() for instr in block.instrs
            if instr.op in ("iconst", "fconst")}


def resolve(mapping: Dict[int, int], value: int) -> int:
    """Follow a substitution chain with path compression."""
    seen = []
    while value in mapping:
        seen.append(value)
        value = mapping[value]
    for v in seen:
        mapping[v] = value
    return value


def substitute_values(func: Function, mapping: Dict[int, int]) -> None:
    """Rewrite every operand through ``mapping`` (chains are followed)."""
    if not mapping:
        return
    for block in func.blocks.values():
        for instr in block.instrs:
            if any(a in mapping for a in instr.args):
                instr.args = tuple(resolve(mapping, a) for a in instr.args)
        block.terminator = map_terminator(
            block.terminator, lambda v: resolve(mapping, v))
