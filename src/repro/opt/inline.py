"""Speculative call-site inlining with polymorphic guards (PR 8).

The tiering controller profiles ``call_indirect`` sites in the staged
tier-1 window and builds an *inline plan*: for each hot, nearly
monomorphic site, the small set of table indices observed there.  This
pass splices the named callees' bodies into the caller's residual IR at
the site, dispatching on the runtime callee index:

    block B:   <prefix> ; i1 = iconst t1 ; c1 = ieq idx, i1
               br_if c1, E1(args...), T2()
    block T2:  i2 = iconst t2 ; c2 = ieq idx, i2
               br_if c2, E2(args...), M()
    block M:   guard idx, (site, {t1, t2}) ; r' = call_indirect idx, args...
               jump J(r')
    block E1:  ...cloned body of table[t1], rets rewritten to jump J...
    block J(result): <suffix of B> ; <original terminator>

The miss block ``M`` has one form whatever precedes the site.  Its
guard always misses there: it notifies the VM's site-miss hook (the
controller demotes the site) and falls through to the original
``call_indirect``, so execution continues in place.  Nothing is
abandoned, so the prefix may have effects (e.g. the interpreter's
argument-copy stores, exactly what the out-of-line callee needs) and the
guard may sit anywhere.  Site *semantics* stay identical to the
un-inlined call; the payoff is that the mid-end now optimizes across the
call boundary (the argument-copy store→load pairs forward, see
``opt/load_forward.py``).

Site ids are positions in :func:`enumerate_call_sites`'s block-id-order
walk of the canonical residual; the VM's site profiler and the
controller use the same enumeration, so ids agree across processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.function import Block, Function
from repro.ir.instructions import (
    BlockCall, BrIf, Instr, Jump, Ret, map_terminator)
from repro.ir.module import Module
from repro.ir.types import I64

# Deterministic hard cap on inlinable callee size, part of the pass
# semantics (covered by ARTIFACT_VERSION, *not* an option — the residual
# must be a pure function of (module, request)).  The controller applies
# its own, much smaller, configurable threshold when building plans.
INLINE_HARD_CAP = 2000


class InlineError(Exception):
    """An inline plan cannot be applied soundly (e.g. a callee
    fingerprint no longer matches the module's body)."""


def enumerate_call_sites(func: Function):
    """Yield ``(site, block_id, index, instr)`` for every
    ``call_indirect`` in block-id order.  On a canonical residual block
    ids are RPO positions, so the numbering is deterministic across
    processes and stable for a given residual."""
    site = 0
    for bid in sorted(func.blocks):
        block = func.blocks[bid]
        for idx, instr in enumerate(block.instrs):
            if instr.op == "call_indirect":
                yield site, bid, idx, instr
                site += 1


def _has_guard(func: Function) -> bool:
    return any(instr.op == "guard"
               for block in func.blocks.values()
               for instr in block.instrs)


def _locate(func: Function, target: Instr) -> Tuple[int, int]:
    for bid, block in func.blocks.items():
        for idx, instr in enumerate(block.instrs):
            if instr is target:
                return bid, idx
    raise InlineError("inline site vanished during plan application")


def _clone_body_into(func: Function, callee: Function,
                     join_id: int) -> int:
    """Clone ``callee``'s body into ``func``; every ``ret`` becomes a
    jump to ``join_id`` carrying the return values.  Returns the cloned
    entry block's id (its params mirror the callee's signature, so the
    dispatch branch passes the call arguments)."""
    block_map: Dict[int, int] = {}
    value_map: Dict[int, int] = {}
    order = sorted(callee.blocks)
    for bid in order:
        block_map[bid] = func.new_block().id
    for bid in order:
        src = callee.blocks[bid]
        dst = func.blocks[block_map[bid]]
        for value, ty in src.params:
            value_map[value] = func.add_block_param(dst, ty)
    for bid in order:
        src = callee.blocks[bid]
        dst = func.blocks[block_map[bid]]
        for instr in src.instrs:
            result = None
            if instr.result is not None:
                result = func.new_value(instr.result_type)
                value_map[instr.result] = result
            dst.instrs.append(Instr(
                instr.op, result,
                tuple(value_map[a] for a in instr.args),
                instr.imm, instr.result_type))
        term = src.terminator
        if isinstance(term, Ret):
            dst.terminator = Jump(BlockCall(
                join_id, tuple(value_map[a] for a in term.args)))
        else:
            dst.terminator = map_terminator(
                term, value_map.__getitem__, block_map.__getitem__)
    return block_map[callee.entry]


def _eligible(func: Function, module: Module, table_index: int,
              site_sig, fingerprint: str, stats) -> Optional[Function]:
    """Resolve and vet one plan target; ``None`` means "skip this
    target" (the site falls back to the out-of-line call for it)."""
    if not (0 < table_index < len(module.table)):
        raise InlineError(f"inline plan names table index {table_index} "
                          f"outside the module table")
    name = module.table[table_index]
    if name is None:
        raise InlineError(f"inline plan names null table slot "
                          f"{table_index}")
    callee = module.functions[name]
    from repro.core.cache import function_fingerprint
    if function_fingerprint(callee) != fingerprint:
        # The plan was built against a different body; replaying it
        # (e.g. out of a poisoned artifact store) would splice the
        # wrong code.  Hard error, never a silent skip.
        raise InlineError(f"inline plan fingerprint mismatch for "
                          f"table[{table_index}] = {name}")
    if callee.entry is None:
        return None
    if callee.name == func.name:
        return None  # direct self-inlining can only grow the body
    if callee.sig != site_sig:
        return None  # signature disagreement: leave the dynamic call
    if _has_guard(callee):
        return None  # nested speculation is not composed (yet)
    if callee.num_instrs() > INLINE_HARD_CAP:
        if stats is not None:
            stats.inline_rejected_size += 1
        return None
    return callee


def apply_inline_plan(func: Function, module: Module, plan,
                      stats=None) -> None:
    """Splice the plan's callees into ``func`` in place.

    ``plan`` is ``((site_id, ((table_index, fingerprint), ...)), ...)``
    with site ids from :func:`enumerate_call_sites` over ``func`` as it
    is *now* (the un-spliced residual).  Raises :class:`InlineError`
    when the plan cannot be applied soundly.
    """
    sites = {site: instr
             for site, _bid, _idx, instr in enumerate_call_sites(func)}
    # Apply in descending site order: a later site in the same block
    # must be spliced first, or the earlier splice would move it into
    # the join block before we locate it.
    for site_id, targets in sorted(plan, reverse=True):
        instr = sites.get(site_id)
        if instr is None:
            raise InlineError(f"inline plan names unknown site "
                              f"{site_id} in {func.name}")
        if stats is not None:
            stats.inline_attempted += 1
        bid, idx = _locate(func, instr)
        callees = []
        for table_index, fingerprint in targets:
            callee = _eligible(func, module, int(table_index),
                               instr.imm, fingerprint, stats)
            if callee is not None:
                callees.append((int(table_index), callee))
        if not callees:
            continue
        _splice_site(func, bid, idx, site_id, callees, stats)


def _splice_site(func: Function, bid: int, idx: int, site_id: int,
                 callees: List[Tuple[int, Function]], stats) -> None:
    block = func.blocks[bid]
    instr = block.instrs[idx]
    index_val = instr.args[0]
    call_args = tuple(instr.args[1:])
    suffix = block.instrs[idx + 1:]
    original_term = block.terminator

    # Join block: the original call's result id becomes its parameter,
    # so every existing use downstream keeps its definition (the join
    # dominates everything the call used to).
    join = func.new_block()
    if instr.result is not None:
        join.params.append((instr.result, instr.result_type))
    join.instrs = suffix
    join.terminator = original_term

    # Miss block: the site guard (it always misses here, notifies, and
    # falls through) + the original out-of-line call.
    values = tuple(sorted({t for t, _ in callees}))
    miss = func.new_block()
    miss.instrs.append(Instr("guard", None, (index_val,),
                             (site_id, values), None))
    result = None
    jump_args: Tuple[int, ...] = ()
    if instr.result is not None:
        result = func.new_value(instr.result_type)
        jump_args = (result,)
    miss.instrs.append(Instr("call_indirect", result, instr.args,
                             instr.imm, instr.result_type))
    miss.terminator = Jump(BlockCall(join.id, jump_args))

    # Dispatch chain: first test lives in the call's own block, each
    # further test in a fresh block, the last falling through to miss.
    entries = [_clone_body_into(func, callee, join.id)
               for _, callee in callees]
    block.instrs = block.instrs[:idx]
    test_blocks = [block]
    for _ in callees[1:]:
        test_blocks.append(func.new_block())
    for i, (table_index, _callee) in enumerate(callees):
        tb = test_blocks[i]
        tval = func.new_value(I64)
        cval = func.new_value(I64)
        tb.instrs.append(Instr("iconst", tval, (), table_index, I64))
        tb.instrs.append(Instr("ieq", cval, (index_val, tval), None, I64))
        if i + 1 < len(test_blocks):
            fallthrough = BlockCall(test_blocks[i + 1].id, ())
        else:
            fallthrough = BlockCall(miss.id, ())
        tb.terminator = BrIf(cval, BlockCall(entries[i], call_args),
                             fallthrough)
    if stats is not None:
        stats.inline_committed += 1
