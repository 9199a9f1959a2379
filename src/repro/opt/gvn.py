"""Dominator-scoped global value numbering (common-subexpression
elimination).

Two pure instructions with the same opcode, immediate, and operands
compute the same value, so a definition that is dominated by an
equivalent earlier definition can be dropped and its uses rewritten to
the survivor.  The pass walks the dominator tree in preorder with a
scoped hash table: expressions found in an ancestor are available in
every block the ancestor dominates, which is exactly the condition under
which the rewrite preserves SSA dominance.

Commutative operand lists are sorted so ``iadd a, b`` unifies with
``iadd b, a``.  Float immediates are keyed by their bits (``_bits_ftoi``,
not ``==``), so ``fconst 0.0`` and ``fconst -0.0`` stay distinct and NaN
constants with equal payloads unify.

Constants get stronger treatment: ``iconst``/``fconst`` have no
operands, so a definition can be *hoisted* to the entry block (which
dominates everything) and then deduplicated function-wide, not just
along dominator paths.  The specializer keeps a per-block constant
cache while transcribing, so residual code re-materializes the same
constant once per specialized block; constant pooling collapses all of
them to one definition each.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.semantics import _bits_ftoi
from repro.opt.util import resolve, substitute_values

# Ops whose result, to the bit, does not depend on operand order.  Not
# ``fadd``/``fmul``: which NaN payload a result of two NaN operands
# carries depends on their order.
COMMUTATIVE = {
    "iadd", "imul", "iand", "ior", "ixor", "ieq", "ine", "feq", "fne",
}


def _imm_key(imm: object) -> object:
    if isinstance(imm, float):
        return ("f64", _bits_ftoi(imm))
    return imm


def global_value_numbering(func: Function) -> int:
    """Eliminate dominated redundant pure computations; returns the
    number of instructions removed."""
    if func.entry is None or func.entry not in func.blocks:
        return 0
    domtree = DominatorTree(func)
    subst: Dict[int, int] = {}
    dead: set = set()
    replaced = 0

    # Constant pooling: operand-less pure defs can live in the entry
    # block (which dominates every use), so equal constants unify
    # function-wide — including across sibling branches where neither
    # definition dominates the other.
    entry_block = func.blocks[func.entry]
    consts: Dict[tuple, int] = {}
    for instr in entry_block.instrs:
        if instr.op in ("iconst", "fconst"):
            consts.setdefault((instr.op, _imm_key(instr.imm)), instr.result)
    hoisted = 0
    for bid, block in func.blocks.items():
        if bid == func.entry or not domtree.is_reachable(bid):
            continue
        kept = []
        for instr in block.instrs:
            if instr.op not in ("iconst", "fconst"):
                kept.append(instr)
                continue
            key = (instr.op, _imm_key(instr.imm))
            existing = consts.get(key)
            if existing is not None:
                subst[instr.result] = existing
                replaced += 1
            else:
                # Hoist: uses sit in this block or blocks it dominates,
                # all strictly after the entry, so moving the def to the
                # end of the entry block preserves def-before-use.
                entry_block.instrs.append(instr)
                consts[key] = instr.result
                hoisted += 1
        block.instrs = kept

    # Scoped table: one dict per dominator-tree node, popped on exit.
    scopes: List[Dict[tuple, int]] = []

    def lookup(key: tuple):
        for scope in reversed(scopes):
            vid = scope.get(key)
            if vid is not None:
                return vid
        return None

    # Iterative preorder walk; children sorted for determinism.
    stack: List[Tuple[int, bool]] = [(func.entry, False)]
    while stack:
        bid, leaving = stack.pop()
        if leaving:
            scopes.pop()
            continue
        scopes.append({})
        stack.append((bid, True))
        for child in sorted(domtree.children.get(bid, ()), reverse=True):
            stack.append((child, False))

        block = func.blocks[bid]
        for instr in block.instrs:
            if instr.result is None or not instr.info().pure:
                continue
            args = tuple(resolve(subst, a) for a in instr.args)
            if instr.op in COMMUTATIVE:
                args = tuple(sorted(args))
            key = (instr.op, _imm_key(instr.imm), args)
            existing = lookup(key)
            if existing is not None:
                subst[instr.result] = existing
                dead.add(id(instr))
                replaced += 1
            else:
                scopes[-1][key] = instr.result

    if replaced:
        for block in func.blocks.values():
            if any(id(i) in dead for i in block.instrs):
                block.instrs = [i for i in block.instrs
                                if id(i) not in dead]
        substitute_values(func, subst)
    # Hoists count as changes: they mutate the IR (converging after one
    # round — a hoisted constant is never hoisted again).
    return replaced + hoisted
