"""SSA control-flow-graph intermediate representation.

This package provides the IR that the weval transform (``repro.core``)
operates on.  It is deliberately WebAssembly-flavoured: a module owns a
linear memory, a table of functions for indirect calls, and a set of
functions; each function is a CFG of basic blocks in SSA form with block
parameters instead of phi nodes.  The paper (S3.6) states the transform
works on "any IR that is a CFG of basic blocks" with explicit edges,
support for irreducible control flow, and a constant-memory interface;
this IR satisfies exactly those requirements.
"""

from repro.ir.types import Type, I64, F64
from repro.ir.instructions import (
    Instr,
    BlockCall,
    Jump,
    BrIf,
    BrTable,
    Ret,
    Trap,
    Terminator,
    OPCODES,
    OpInfo,
    wrap_i64,
    to_signed,
)
from repro.ir.function import Block, Function, Signature
from repro.ir.module import Module, HostFunc
from repro.ir.cfg import (
    successors,
    predecessors,
    reverse_postorder,
    postorder,
    retreating_edges,
)
from repro.ir.dominance import DominatorTree
from repro.ir.printer import print_function
from repro.ir.parser import IRParseError, parse_function
from repro.ir.verifier import verify_function, verify_module, VerificationError

__all__ = [
    "Type",
    "I64",
    "F64",
    "Instr",
    "BlockCall",
    "Jump",
    "BrIf",
    "BrTable",
    "Ret",
    "Trap",
    "Terminator",
    "OPCODES",
    "OpInfo",
    "wrap_i64",
    "to_signed",
    "Block",
    "Function",
    "Signature",
    "Module",
    "HostFunc",
    "successors",
    "predecessors",
    "reverse_postorder",
    "postorder",
    "retreating_edges",
    "DominatorTree",
    "print_function",
    "parse_function",
    "IRParseError",
    "verify_function",
    "verify_module",
    "VerificationError",
]
