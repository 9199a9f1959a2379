"""The mini-C frontend's instruction builder.

:mod:`repro.frontend.compiler` lowers its AST through it, one block at a
time; it is the only caller.  IR written by hand is the printed text
:func:`repro.ir.parse_function` reads.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.function import Block, Function, Signature
from repro.ir.instructions import OPCODES, Instr, wrap_i64
from repro.ir.types import Type


class FunctionBuilder:
    """Appends instructions to the current block of a :class:`Function`;
    the lowering sets terminators on ``current`` itself."""

    def __init__(self, name: str, sig: Signature):
        self.func = Function(name, sig)
        self.entry = self.func.new_block()
        self.func.entry = self.entry.id
        for ty in sig.params:
            self.func.add_block_param(self.entry, ty)
        self.current: Block = self.entry

    # ------------------------------------------------------------------
    # Block management.
    # ------------------------------------------------------------------
    def new_block(self, param_types: Sequence[Type] = ()) -> Block:
        block = self.func.new_block()
        for ty in param_types:
            self.func.add_block_param(block, ty)
        return block

    def switch_to(self, block: Block) -> Block:
        self.current = block
        return block

    # ------------------------------------------------------------------
    # Instruction emission.
    # ------------------------------------------------------------------
    def emit(self, op: str, args: Sequence[int] = (), imm: object = None,
             result_type: Optional[Type] = None) -> Optional[int]:
        """Append ``op``; its result type is ``OPCODES``' (a ``select``'s
        is its operands', a call's is ``result_type``)."""
        info = OPCODES[op]
        if info.result is None:
            result = None
            rtype = None
        elif info.result == "poly":
            rtype = result_type or self.func.type_of(args[1])
            result = self.func.new_value(rtype)
        elif info.result == "dynamic":
            rtype = result_type
            result = self.func.new_value(rtype) if rtype is not None else None
        else:
            rtype = info.result
            result = self.func.new_value(rtype)
        instr = Instr(op, result, tuple(args), imm, rtype)
        self.current.instrs.append(instr)
        return result

    def iconst(self, value: int) -> int:
        return self.emit("iconst", imm=wrap_i64(value))

    def fconst(self, value: float) -> int:
        return self.emit("fconst", imm=float(value))

    def call(self, callee: str, args: Sequence[int],
             result_type: Optional[Type] = None) -> Optional[int]:
        return self.emit("call", args, imm=callee, result_type=result_type)

    def call_indirect(self, sig: Signature, index: int,
                      args: Sequence[int]) -> Optional[int]:
        rtype = sig.results[0] if sig.results else None
        return self.emit("call_indirect", (index, *args), imm=sig,
                         result_type=rtype)

    def global_get(self, name: str) -> int:
        return self.emit("global_get", imm=name)

    def global_set(self, name: str, value: int) -> None:
        self.emit("global_set", (value,), imm=name)
