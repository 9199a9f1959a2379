"""MiniJS stack bytecode.

Instructions are two 64-bit words ``[op, a]`` with an optional third for
the few two-operand ops — for simplicity every instruction is three
words ``[op, a, b]``.  The operand stack lives above the locals in the
function's frame; the compiler tracks the static stack depth, so frame
sizes are known ahead of time (and, under specialization, the stack
pointer is a compile-time constant at every pc — which is what makes
the virtualized-stack intrinsics effective).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List


class Op(enum.IntEnum):
    LOADK = 0        # push consts[a]
    LOADLOCAL = 1    # push locals[a]
    STORELOCAL = 2   # locals[a] = pop
    POP = 3
    DUP = 4
    ADD = 5          # binary arithmetic: double fast path inline
    SUB = 6
    MUL = 7
    DIV = 8
    MOD = 9
    LT = 10
    LE = 11
    GT = 12
    GE = 13
    EQ = 14
    NE = 15
    JMP = 16         # pc = a
    JMPF = 17        # if falsy(pop): pc = a
    CALL = 18        # a = function id, b = nargs (including `this`)
    CALLV = 19       # b = nargs; stack: [fn, this, args...]
    RET = 20         # return pop
    GETPROP = 21     # a = name id, b = IC site index; pops obj
    SETPROP = 22     # a = name id, b = IC site index; pops obj, value
    NEWOBJ = 23      # a = shape id, b = nprops; pops nprops values
    NEWARR = 24      # pops length (double); pushes array
    GETIDX = 25      # pops idx, arr
    SETIDX = 26      # pops value, idx, arr
    LEN = 27         # pops arr, pushes length
    PRINT = 28       # pops and prints (host call)
    NEG = 29
    NOT = 30
    SWAP = 31
    SQRT = 32
    FLOOR = 33
    ABS = 34
    HOSTCALL2 = 35  # a = host function id; pops two args (host slow call)


@dataclasses.dataclass
class JSFunction:
    """One compiled MiniJS function (bytecode + metadata).

    ``num_params`` includes the implicit ``this`` parameter (slot 0).
    ``frame_slots`` is locals + maximum operand-stack depth: the callee
    frame begins that many slots above the caller's.
    """

    name: str
    index: int
    num_params: int
    num_locals: int = 0
    max_stack: int = 0
    num_ic_sites: int = 0
    code: List[int] = dataclasses.field(default_factory=list)
    constants: List[int] = dataclasses.field(default_factory=list)

    @property
    def frame_slots(self) -> int:
        return self.num_locals + self.max_stack

    def emit(self, op: Op, a: int = 0, b: int = 0) -> int:
        pc = len(self.code)
        mask = (1 << 64) - 1
        self.code.extend([int(op), a & mask, b & mask])
        return pc

    def patch(self, pc: int, operand: int, value: int) -> None:
        self.code[pc + operand] = value & ((1 << 64) - 1)

    def here(self) -> int:
        return len(self.code)

    def const_index(self, boxed: int) -> int:
        try:
            return self.constants.index(boxed)
        except ValueError:
            self.constants.append(boxed)
            return len(self.constants) - 1

    def new_ic_site(self) -> int:
        site = self.num_ic_sites
        self.num_ic_sites += 1
        return site
