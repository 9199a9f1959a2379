"""Dominator-scoped global value numbering, with copy propagation,
constant folding and branch-edge facts in the same walk (Click, "Global
Code Motion / Global Value Numbering", PLDI 1995).

Two pure instructions with the same opcode, immediate, and operands
compute the same value, so a definition that is dominated by an
equivalent earlier definition can be dropped and its uses rewritten to
the survivor.  The pass walks the dominator tree in preorder with one
hash table whose entries a block adds are undone when the walk leaves
it: expressions found in an ancestor are available in every block the
ancestor dominates, which is exactly the condition under which the
rewrite preserves SSA dominance.

*Edge facts* (Bodík, Gupta & Soffa, "Interprocedural conditional branch
elimination", PLDI 1997; LLVM GVN's ``propagateEquality``) are scoped
the same way.  A block entered by exactly one edge, an arm of a
``br_if c`` (edges, not predecessor blocks: ``br_if c, B, B`` teaches
``B`` nothing), knows ``c``'s truth in its whole dominator subtree.  The
walk records it for ``c``; when ``c`` is a compare, for its expression
key and, through :data:`NEGATION`, the opposite for the negated key
(never for an ordered float compare, which NaN leaves without one), and
for the values dominating blocks computed those keys as; and through
``ine x, 0`` / ``ieq x, 0``, for ``x``.  In that subtree a ``br_if`` on
a decided value becomes a ``jump`` to the decided arm (simplify-cfg then
drops the dead arm), and every other operand that is a decided value
reads the entry block's 0, or its 1 when the value is a compare, if the
entry block defines that constant.  Those rewrites go to the visited
block's operands, never through the substitution applied to the whole
function: a fact holds only in its subtree.

Each pure instruction, its operands resolved through the rewrites so
far and read through the edge facts, is in order:

1. a *copy* when an algebraic identity makes it one of its operands
   (``iadd x, 0``, ``imul x, 1``, ``iand x, ~0``, a ``select`` whose
   arms agree or whose condition is constant or decided by an edge,
   ``ine c, 0`` of a compare ``c``, which is already 0 or 1, a bit cast
   of its inverse cast, ``bits_itof(bits_ftoi f)`` or
   ``bits_ftoi(bits_itof i)``, exact on every bit since both rows copy
   the 64 bits through the scratch word; :func:`_copy_source`).  The
   operand's definition (or the inner cast's) dominates the
   instruction's, so its uses may read the operand instead;
2. *negated* in place when it is ``ieq c, 0`` of a compare ``c`` whose
   negation is exact (:data:`NEGATION`): it becomes that negation over
   ``c``'s operands, which dominate ``c`` and so the instruction.  Then
   ``c`` may lose its last use, and the negation, with one use, fuses
   into its ``br_if`` when emitted;
3. *folded* in place to an ``iconst`` / ``fconst`` when every operand
   is a constant (:func:`~repro.core.lattice.fold_pure_op`, which leaves
   an op that would trap alone);
4. *decided* in place to ``iconst 1`` / ``0`` when it is a compare whose
   expression key an edge decided;
5. *numbered*: dropped if an equal expression dominates it.

A block's ``br_if`` then tests what its condition's zero test tests:
``br_if (ine x, 0), T, F`` becomes ``br_if x, T, F`` and ``br_if (ieq x,
0), T, F`` becomes ``br_if x, F, T``, exact because ``br_if`` branches
on any nonzero value; the zero test is left to DCE.

Commutative operand lists are sorted so ``iadd a, b`` unifies with
``iadd b, a``.  Float immediates are keyed by their bits (``_bits_ftoi``,
not ``==``), so ``fconst 0.0`` and ``fconst -0.0`` stay distinct and NaN
constants with equal payloads unify.

Constants get stronger treatment: ``iconst``/``fconst`` have no
operands, so a definition can be *hoisted* to the entry block (which
dominates everything) and then deduplicated function-wide, not just
along dominator paths.  The specializer already defines each constant
once in the entry block; pooling is for the constants the inline
splicer clones into callee blocks and the ones steps 3 and 4 fold, which
the next run hoists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.lattice import fold_pure_op
from repro.ir.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import (
    MASK64,
    BrIf,
    Jump,
    map_terminator,
    terminator_values,
)
from repro.ir.semantics import _bits_ftoi
from repro.ir.types import I64
from repro.opt.util import constants, resolve, substitute_values

# Ops whose result, to the bit, does not depend on operand order.  Not
# ``fadd``/``fmul``: which NaN payload a result of two NaN operands
# carries depends on their order.
COMMUTATIVE = {
    "iadd", "imul", "iand", "ior", "ixor", "ieq", "ine", "feq", "fne",
}

# Each compare whose 0/1 result is exactly the other's flipped, on every
# operand: the ten integer compares, and ``feq``/``fne``.  Not an
# ordered float compare: with a NaN operand ``flt`` and ``fge`` are both
# 0.
NEGATION: Dict[str, str] = {}
for _a, _b in (("ieq", "ine"), ("ilt_s", "ige_s"), ("ilt_u", "ige_u"),
               ("ile_s", "igt_s"), ("ile_u", "igt_u"), ("feq", "fne")):
    NEGATION[_a], NEGATION[_b] = _b, _a

# The ops whose result is a compare's 0 or 1.
COMPARES = {*NEGATION, "flt", "fle", "fgt", "fge"}

# Each bit cast mapped to its inverse: both copy the 64 bits through
# the scratch word, NaN payloads included, so a cast of the inverse
# cast of ``x`` is ``x``.
ROUND_TRIP = {"bits_itof": "bits_ftoi", "bits_ftoi": "bits_itof"}


def _imm_key(imm: object) -> object:
    if isinstance(imm, float):
        return ("f64", _bits_ftoi(imm))
    return imm


def _zero_tested(args: tuple, consts: Dict[int, object]) -> Optional[int]:
    """The operand an ``ine``/``ieq`` with operands ``args`` tests
    against a constant 0, in either operand order, or None."""
    x, y = args
    if consts.get(y) == 0:
        return x
    if consts.get(x) == 0:
        return y
    return None


def _compare(kept: Dict[int, tuple], value: Optional[int]
             ) -> Optional[tuple]:
    """``(op, operands)`` of ``value`` when ``kept`` holds it as a
    compare, else None."""
    shape = kept.get(value)
    return shape if shape is not None and shape[0] in COMPARES else None


def _copy_source(op: str, args: tuple, consts: Dict[int, object],
                 kept: Dict[int, tuple]) -> Optional[int]:
    """The value id ``op(args)`` is an alias of, or None.  ``kept``
    holds the pure instructions kept so far, value id -> ``(op,
    args)``."""
    const = consts.get
    if op == "ine":
        tested = _zero_tested(args, consts)
        return tested if _compare(kept, tested) is not None else None
    if op in ROUND_TRIP:
        inner = kept.get(args[0])
        if inner is not None and inner[0] == ROUND_TRIP[op]:
            return inner[1][0]
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


def global_value_numbering(func: Function) -> int:
    """Propagate copies, fold constants, fold what branch edges decide,
    and eliminate dominated redundant pure computations; returns the
    number of instructions removed, hoisted, folded or decided, plus
    the operands read as an edge's constant and the zero tests peeled
    off ``br_if`` conditions."""
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
    pool: Dict[tuple, int] = {}
    for instr in entry_block.instrs:
        if instr.op in ("iconst", "fconst"):
            pool.setdefault((instr.op, _imm_key(instr.imm)), instr.result)
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
            existing = pool.get(key)
            if existing is not None:
                subst[instr.result] = existing
                replaced += 1
            else:
                # Hoist: uses sit in this block or blocks it dominates,
                # all strictly after the entry, so moving the def to the
                # end of the entry block preserves def-before-use.
                entry_block.instrs.append(instr)
                pool[key] = instr.result
                hoisted += 1
        block.instrs = kept

    consts = constants(func)
    folded = negated = decided = peeled = 0
    # The pure instructions the walk has kept: value id -> (op,
    # operands).  A value's definition dominates its uses, so one map
    # serves the walk.
    kept: Dict[int, tuple] = {}

    # What holds on the walk's current dominator path, undone on the
    # way back up: ``available`` maps an expression key to the value
    # that computes it, and ``facts`` a value id or an expression key to
    # the truth the edges walked into the current block prove of it
    # (edge facts).  ``undo`` holds, per walked block, the
    # ``(table, key, entry before)`` triples of what the block added.
    available: Dict[tuple, int] = {}
    facts: Dict[object, bool] = {}
    undo: List[List[tuple]] = []

    def record(table: dict, key: object, entry: object) -> None:
        undo[-1].append((table, key, table.get(key)))
        table[key] = entry

    # A block entered by exactly one edge, mapped to that edge's source
    # (to None when it has more: edges, not predecessor blocks, so
    # ``br_if c, B, B`` teaches ``B`` nothing).
    sole_edge: Dict[int, Optional[int]] = {}
    for src, block in func.blocks.items():
        for call in block.terminator.targets() if block.terminator else ():
            sole_edge[call.block] = None if call.block in sole_edge else src

    def learn(bid: int) -> None:
        """Record what the one edge into ``bid``, an arm of a ``br_if``,
        proves in ``bid``'s dominator subtree."""
        src = sole_edge.get(bid)
        term = func.blocks[src].terminator if src is not None else None
        if bid == func.entry or not isinstance(term, BrIf):
            return
        pending = [(resolve(subst, term.cond), term.if_true.block == bid)]
        while pending:
            value, truth = pending.pop()
            if value in consts:
                continue
            learned = [(value, truth)]
            shape = _compare(kept, value)
            if shape is not None:
                op, args = shape
                keys = [((op, None, args), truth)]
                if op in NEGATION:
                    keys.append(((NEGATION[op], None, args), not truth))
                # Each key, and the value a dominating block computed it
                # as, if any.
                for key, known in keys:
                    learned += [(key, known), (available.get(key), known)]
                # ``ine x, 0`` / ``ieq x, 0`` also decides ``x``.
                tested = (_zero_tested(args, consts)
                          if op in ("ine", "ieq") else None)
                if tested is not None:
                    pending.append((tested, truth == (op == "ine")))
            for fact, known in learned:
                if fact is not None:
                    record(facts, fact, known)

    def read(value: int) -> int:
        """``value`` as a use in the current block reads it: the pool's
        0 when an edge proved it zero, its 1 when it proved a compare
        true, else ``value`` itself."""
        nonlocal decided
        value = resolve(subst, value)
        truth = facts.get(value)
        if truth is None or truth and _compare(kept, value) is None:
            return value
        constant = pool.get(("iconst", int(truth)))
        if constant is None:
            return value
        decided += 1
        return constant

    # Iterative preorder walk; children sorted for determinism.
    stack: List[Tuple[int, bool]] = [(func.entry, False)]
    while stack:
        bid, leaving = stack.pop()
        if leaving:
            for table, key, before in reversed(undo.pop()):
                if before is None:
                    del table[key]
                else:
                    table[key] = before
            continue
        undo.append([])
        learn(bid)
        stack.append((bid, True))
        for child in sorted(domtree.children.get(bid, ()), reverse=True):
            stack.append((child, False))

        block = func.blocks[bid]
        for instr in block.instrs:
            if instr.result is None or not instr.info().pure:
                # An operand that is a copy of a decided value is read
                # next run, once ``subst`` has been applied.
                if facts and not facts.keys().isdisjoint(instr.args):
                    instr.args = tuple(map(read, instr.args))
                continue
            args = tuple(resolve(subst, a) for a in instr.args)
            if facts and not facts.keys().isdisjoint(args):
                # In place, never through ``subst``: the fact holds only
                # in this subtree.
                instr.args = args = tuple(map(read, args))
            if instr.op == "select" and args[0] in facts:
                source = args[1] if facts[args[0]] else args[2]
            else:
                source = _copy_source(instr.op, args, consts, kept)
            if source is not None:
                subst[instr.result] = source
                dead.add(id(instr))
                replaced += 1
                continue
            if instr.op == "ieq":
                tested = _compare(kept, _zero_tested(args, consts))
                if tested is not None and tested[0] in NEGATION:
                    instr.op = NEGATION[tested[0]]
                    instr.args = args = tested[1]
                    negated += 1
            if args and all(a in consts for a in args):
                value = fold_pure_op(instr.op, instr.imm,
                                     [consts[a] for a in args])
                if value is not None:
                    instr.op = ("iconst" if instr.result_type == I64
                                else "fconst")
                    instr.args = args = ()
                    instr.imm = consts[instr.result] = value
                    folded += 1
            if instr.op in COMMUTATIVE:
                args = tuple(sorted(args))
            key = (instr.op, _imm_key(instr.imm), args)
            truth = facts.get(key)
            if truth is not None:
                # A compare an edge decided: its constant, which the
                # entry block's pooled constant then replaces.
                instr.op, instr.args, instr.imm = "iconst", (), int(truth)
                consts[instr.result] = int(truth)
                key = ("iconst", int(truth), ())
                decided += 1
            existing = available.get(key)
            if existing is not None:
                subst[instr.result] = existing
                dead.add(id(instr))
                replaced += 1
            else:
                record(available, key, instr.result)
                kept[instr.result] = (instr.op, args)

        term = block.terminator
        while isinstance(term, BrIf):
            # ``br_if`` branches on nonzero, so it may test what a zero
            # test tests: ``ine x, 0`` as ``x``, ``ieq x, 0`` as ``x``
            # with the arms swapped.
            op, args = kept.get(resolve(subst, term.cond), ("", ()))
            tested = (_zero_tested(args, consts)
                      if op in ("ine", "ieq") else None)
            if tested is None:
                break
            arms = (term.if_true, term.if_false)
            term = block.terminator = BrIf(
                tested, *(arms if op == "ine" else arms[::-1]))
            peeled += 1
        if facts and term is not None:
            if isinstance(term, BrIf):
                truth = facts.get(resolve(subst, term.cond))
                if truth is not None:
                    term = Jump(term.if_true if truth else term.if_false)
                    decided += 1
            if not facts.keys().isdisjoint(terminator_values(term)):
                term = map_terminator(term, read)
            block.terminator = term

    if replaced:
        for block in func.blocks.values():
            if any(id(i) in dead for i in block.instrs):
                block.instrs = [i for i in block.instrs
                                if id(i) not in dead]
        substitute_values(func, subst)
    # Hoists count as changes: they mutate the IR (converging after one
    # round — a hoisted constant is never hoisted again).
    return replaced + hoisted + folded + negated + decided + peeled
