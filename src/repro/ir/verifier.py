"""IR verification: structural, type, and SSA dominance checks.

The specializer's output is always run through the verifier in tests;
this is the main line of defence for the "semantics-preserving" claim.
``REPRO_OPT_VERIFY=1`` (:func:`verify_enabled_by_env`) turns on the
debug checks every layer reads: the verifier after every mid-end pass,
the specializer's fixpoint checks, the tiering invariants and the heap
and frozen-function checks.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.ir.cfg import reachable_blocks, successors
from repro.ir.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import (
    OPCODES,
    BlockCall,
    BrIf,
    BrTable,
    Instr,
    Jump,
    Ret,
    Trap,
    terminator_values,
)
from repro.ir.module import Module
from repro.ir.types import I64, Type


class VerificationError(Exception):
    """Raised when a function or module fails verification."""


def verify_enabled_by_env() -> bool:
    """True when the environment opts into the debug checks."""
    return os.environ.get("REPRO_OPT_VERIFY", "") not in ("", "0")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise VerificationError(message)


def verify_function(func: Function, module: Module = None) -> None:
    """Verify one function.

    Checks:
      * entry block exists and its params match the signature;
      * every reachable block has a terminator;
      * branch argument counts/types match target block parameters;
      * operand counts/types match each opcode's :class:`OpInfo`;
      * every used value has a definition;
      * defs dominate uses (SSA validity).
    """
    _check(func.entry is not None, f"{func.name}: no entry block")
    _check(func.entry in func.blocks,
           f"{func.name}: entry block{func.entry} does not exist")
    entry = func.entry_block()
    entry_types = tuple(t for _, t in entry.params)
    _check(entry_types == func.sig.params,
           f"{func.name}: entry params {entry_types} != sig {func.sig.params}")

    # Structural pre-scan: every edge must name an existing block, or the
    # reachability traversal below would crash instead of reporting.
    for bid, block in func.blocks.items():
        if block.terminator is None:
            continue
        for call in block.terminator.targets():
            _check(call.block in func.blocks,
                   f"{func.name}/block{bid}: branch to unknown "
                   f"block{call.block}")

    reachable = reachable_blocks(func)

    # Collect definitions: block of definition for each value.
    def_block: Dict[int, int] = {}
    def_index: Dict[int, int] = {}
    for bid in reachable:
        block = func.blocks[bid]
        for value, ty in block.params:
            _check(value not in def_block,
                   f"{func.name}: value v{value} defined twice")
            def_block[value] = bid
            def_index[value] = -1
            _check(func.value_types.get(value) == ty,
                   f"{func.name}: block param v{value} type mismatch")
        for i, instr in enumerate(block.instrs):
            if instr.result is not None:
                _check(instr.result not in def_block,
                       f"{func.name}: value v{instr.result} defined twice")
                def_block[instr.result] = bid
                def_index[instr.result] = i

    # Structural and type checks per block.
    entry_reentered = any(func.entry in successors(func, bid)
                          for bid in reachable)
    for bid in reachable:
        block = func.blocks[bid]
        _check(block.terminator is not None,
               f"{func.name}: block{bid} lacks a terminator")
        clean = bid == func.entry and not entry_reentered
        for i, instr in enumerate(block.instrs):
            _verify_instr(func, module, bid, i, instr, def_block)
            if instr.op == "guard" and not isinstance(instr.imm, tuple):
                # Deopt safety: a failed entry guard abandons the
                # activation and re-runs the generic function, which is
                # only sound while nothing observable has happened yet.
                # So it sits in the entry block, which no branch enters
                # again, ahead of every store/call/global_set (pure ops
                # and loads may precede it; their counter effects are
                # rolled back on deopt).  A site guard ``(site, values)``
                # never unwinds, so it may sit anywhere.
                _check(clean,
                       f"{func.name}/block{bid}[{i}]: entry guard not at "
                       f"function entry (in the entry block, which no "
                       f"branch re-enters, ahead of every side effect)")
            info = OPCODES.get(instr.op)
            if info is not None and (info.is_store or info.is_call
                                     or instr.op == "global_set"):
                clean = False
        _verify_terminator(func, bid, block.terminator, def_block)

    # Dominance checks.
    domtree = DominatorTree(func)
    for bid in reachable:
        block = func.blocks[bid]
        for i, instr in enumerate(block.instrs):
            for arg in instr.args:
                _verify_dominance(func, domtree, def_block, def_index,
                                  bid, i, arg)
        for value in terminator_values(block.terminator):
            _verify_dominance(func, domtree, def_block, def_index,
                              bid, len(block.instrs), value)


def _verify_guard_imm(name: str, imm) -> None:
    """Validate a guard immediate: an entry guard's ``int`` or a site
    guard's ``(site, values)``."""
    if isinstance(imm, int) and not isinstance(imm, bool):
        _check(0 <= imm < (1 << 64),
               f"{name}: guard imm must be an unsigned i64 constant")
        return
    _check(isinstance(imm, tuple) and len(imm) == 2,
           f"{name}: guard imm must be an unsigned i64 constant or a "
           f"(site, values) tuple")
    site, values = imm
    _check(isinstance(site, int) and not isinstance(site, bool)
           and site >= 0,
           f"{name}: guard site must be a non-negative int")
    _check(isinstance(values, tuple) and len(values) >= 1,
           f"{name}: guard value set must be a non-empty tuple")
    previous = -1
    for value in values:
        _check(isinstance(value, int) and not isinstance(value, bool)
               and 0 <= value < (1 << 64),
               f"{name}: guard value set entries must be unsigned i64")
        _check(value > previous,
               f"{name}: guard value set must be strictly increasing")
        previous = value


def _verify_instr(func: Function, module, bid: int, index: int,
                  instr: Instr, def_block: Dict[int, int]) -> None:
    _check(instr.op in OPCODES, f"{func.name}: unknown opcode {instr.op}")
    info = OPCODES[instr.op]
    name = f"{func.name}/block{bid}[{index}]"
    if instr.op == "call":
        _check(isinstance(instr.imm, str), f"{name}: call imm must be a name")
        if module is not None:
            _check(module.has_function(instr.imm),
                   f"{name}: call of unknown function {instr.imm}")
            sig = module.signature_of(instr.imm)
            _check(len(instr.args) == len(sig.params),
                   f"{name}: call arg count {len(instr.args)} != "
                   f"{len(sig.params)}")
            for arg, ty in zip(instr.args, sig.params):
                _check(func.value_types.get(arg) == ty,
                       f"{name}: call arg v{arg} type mismatch")
            if sig.results:
                _check(instr.result is not None and
                       instr.result_type == sig.results[0],
                       f"{name}: call result type mismatch")
        return
    if instr.op == "call_indirect":
        _check(len(instr.args) >= 1, f"{name}: call_indirect needs an index")
        sig = instr.imm
        _check(len(instr.args) - 1 == len(sig.params),
               f"{name}: call_indirect arg count mismatch")
        return
    if instr.op in ("global_get", "global_set"):
        if module is not None:
            _check(instr.imm in module.globals,
                   f"{name}: unknown global {instr.imm}")
    if instr.op == "guard":
        _verify_guard_imm(name, instr.imm)
        _check(instr.result is None, f"{name}: guard has no result")
    # Fixed-arity ops.
    _check(len(instr.args) == len(info.arg_types),
           f"{name}: {instr.op} expects {len(info.arg_types)} args, "
           f"got {len(instr.args)}")
    for arg, expected in zip(instr.args, info.arg_types):
        _check(arg in func.value_types, f"{name}: undefined value v{arg}")
        if expected is not None:
            _check(func.value_types[arg] == expected,
                   f"{name}: operand v{arg} has type "
                   f"{func.value_types[arg]}, expected {expected}")
    if info.result == "poly":
        _check(func.value_types[instr.args[1]] ==
               func.value_types[instr.args[2]],
               f"{name}: select operands disagree in type")


def _verify_terminator(func: Function, bid: int, term,
                       def_block: Dict[int, int]) -> None:
    name = f"{func.name}/block{bid}"

    def check_call(call: BlockCall) -> None:
        _check(call.block in func.blocks,
               f"{name}: branch to unknown block{call.block}")
        params = func.blocks[call.block].params
        _check(len(call.args) == len(params),
               f"{name}: branch to block{call.block} passes "
               f"{len(call.args)} args, expects {len(params)}")
        for arg, (_, ty) in zip(call.args, params):
            _check(func.value_types.get(arg) == ty,
                   f"{name}: branch arg v{arg} type mismatch to "
                   f"block{call.block}")

    if isinstance(term, (Jump, BrIf, BrTable)):
        for call in term.targets():
            check_call(call)
        if isinstance(term, BrIf):
            _check(func.value_types.get(term.cond) == I64,
                   f"{name}: br_if condition must be i64")
        if isinstance(term, BrTable):
            _check(func.value_types.get(term.index) == I64,
                   f"{name}: br_table index must be i64")
    elif isinstance(term, Ret):
        _check(len(term.args) == len(func.sig.results),
               f"{name}: return arity mismatch")
        for arg, ty in zip(term.args, func.sig.results):
            _check(func.value_types.get(arg) == ty,
                   f"{name}: return value v{arg} type mismatch")
    elif isinstance(term, Trap):
        pass
    else:
        raise VerificationError(f"{name}: bad terminator {term!r}")


def _verify_dominance(func: Function, domtree: DominatorTree,
                      def_block: Dict[int, int], def_index: Dict[int, int],
                      use_block: int, use_index: int, value: int) -> None:
    _check(value in def_block,
           f"{func.name}: use of undefined value v{value} in "
           f"block{use_block}")
    dblock = def_block[value]
    if dblock == use_block:
        _check(def_index[value] < use_index,
               f"{func.name}: v{value} used before defined in "
               f"block{use_block}")
    else:
        _check(domtree.dominates(dblock, use_block),
               f"{func.name}: def of v{value} in block{dblock} does not "
               f"dominate use in block{use_block}")


def verify_module(module: Module) -> None:
    """Verify every function in a module, plus table entries."""
    for entry in module.table:
        if entry is not None:
            _check(module.has_function(entry),
                   f"table entry {entry} is not a function")
    for func in module.functions.values():
        verify_function(func, module)
