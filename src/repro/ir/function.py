"""Functions, basic blocks, and signatures."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Instr, Terminator
from repro.ir.types import Type


@dataclasses.dataclass(frozen=True)
class Signature:
    """A function signature: parameter types and result types.

    At most one result is supported (our guest interpreters need no more),
    but the type is a tuple so multi-result support is a local change.
    """

    params: Tuple[Type, ...]
    results: Tuple[Type, ...] = ()

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.params)
        if not self.results:
            return f"({params})"
        results = ", ".join(str(t) for t in self.results)
        return f"({params}) -> {results}"


@dataclasses.dataclass
class Block:
    """A basic block: typed parameters, instructions, one terminator."""

    id: int
    params: List[Tuple[int, Type]] = dataclasses.field(default_factory=list)
    instrs: List[Instr] = dataclasses.field(default_factory=list)
    terminator: Optional[Terminator] = None


class Function:
    """An SSA function: a CFG of blocks plus value bookkeeping.

    The entry block's parameters are the function's parameters.  Value ids
    are allocated monotonically via :meth:`new_value`; ``value_types``
    records the type of every value ever created.

    A function is mutable unless it is *frozen*: the interpreter image
    (:mod:`repro.frontend.image`) registers one ``Function`` object in
    every module built from the same text, so nobody may change it.
    ``fingerprint`` is then the body's fingerprint, recorded when it was
    frozen (``None`` on every other function), and ``prepared`` what the
    specializer derives from the body alone, computed on first use.
    """

    def __init__(self, name: str, sig: Signature):
        self.name = name
        self.sig = sig
        self.blocks: Dict[int, Block] = {}
        self.entry: Optional[int] = None
        self.value_types: Dict[int, Type] = {}
        self._next_value = 0
        self._next_block = 0
        self.fingerprint: Optional[str] = None
        self.prepared: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    def new_value(self, ty: Type) -> int:
        vid = self._next_value
        self._next_value += 1
        self.value_types[vid] = ty
        return vid

    def new_block(self) -> Block:
        block = Block(self._next_block)
        self._next_block = block.id + 1
        self.blocks[block.id] = block
        return block

    def add_block_param(self, block: Block, ty: Type) -> int:
        vid = self.new_value(ty)
        block.params.append((vid, ty))
        return vid

    def entry_block(self) -> Block:
        assert self.entry is not None, f"function {self.name} has no entry"
        return self.blocks[self.entry]

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def type_of(self, value: int) -> Type:
        return self.value_types[value]

    def num_instrs(self) -> int:
        return sum(len(b.instrs) for b in self.blocks.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function {self.name} {self.sig} blocks={len(self.blocks)}>"
