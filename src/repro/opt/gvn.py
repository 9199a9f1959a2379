"""Dominator-scoped global value numbering, with copy propagation and
constant folding in the same walk (Click, "Global Code Motion / Global
Value Numbering", PLDI 1995).

Two pure instructions with the same opcode, immediate, and operands
compute the same value, so a definition that is dominated by an
equivalent earlier definition can be dropped and its uses rewritten to
the survivor.  The pass walks the dominator tree in preorder with a
scoped hash table: expressions found in an ancestor are available in
every block the ancestor dominates, which is exactly the condition under
which the rewrite preserves SSA dominance.

Each pure instruction, its operands resolved through the rewrites so
far, is in order:

1. a *copy* when an algebraic identity makes it one of its operands
   (``iadd x, 0``, ``imul x, 1``, ``iand x, ~0``, a ``select`` whose
   arms agree or whose condition is constant, ``ine c, 0`` of a compare
   ``c``, which is already 0 or 1; :func:`_copy_source`).  The
   operand's definition dominates the instruction's, so its uses may
   read the operand instead;
2. *negated* in place when it is ``ieq c, 0`` of a compare ``c`` whose
   negation is exact (:data:`NEGATION`): it becomes that negation over
   ``c``'s operands, which dominate ``c`` and so the instruction.  Then
   ``c`` may lose its last use, and the negation, with one use, fuses
   into its ``br_if`` when emitted;
3. *folded* in place to an ``iconst`` / ``fconst`` when every operand
   is a constant (:func:`~repro.core.lattice.fold_pure_op`, which leaves
   an op that would trap alone);
4. *numbered*: dropped if an equal expression dominates it.

Commutative operand lists are sorted so ``iadd a, b`` unifies with
``iadd b, a``.  Float immediates are keyed by their bits (``_bits_ftoi``,
not ``==``), so ``fconst 0.0`` and ``fconst -0.0`` stay distinct and NaN
constants with equal payloads unify.

Constants get stronger treatment: ``iconst``/``fconst`` have no
operands, so a definition can be *hoisted* to the entry block (which
dominates everything) and then deduplicated function-wide, not just
along dominator paths.  The specializer already defines each constant
once in the entry block; pooling is for the constants the inline
splicer clones into callee blocks and the ones step 2 folds, which the
next run hoists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.lattice import fold_pure_op
from repro.ir.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import MASK64
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


def _imm_key(imm: object) -> object:
    if isinstance(imm, float):
        return ("f64", _bits_ftoi(imm))
    return imm


def _compare_tested(args: tuple, consts: Dict[int, object],
                    compares: Dict[int, tuple]) -> Optional[int]:
    """The compare an ``ine``/``ieq`` with operands ``args`` tests
    against 0, in either operand order, or None."""
    x, y = args
    if consts.get(y) == 0 and x in compares:
        return x
    if consts.get(x) == 0 and y in compares:
        return y
    return None


def _copy_source(op: str, args: tuple, consts: Dict[int, object],
                 compares: Dict[int, tuple]) -> Optional[int]:
    """The value id ``op(args)`` is an alias of, or None.  ``compares``
    holds the compares defined so far, value id -> ``(op, args)``."""
    const = consts.get
    if op == "ine":
        return _compare_tested(args, consts, compares)
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
    """Propagate copies, fold constants, and eliminate dominated
    redundant pure computations; returns the number of instructions
    removed, hoisted, or folded."""
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
    folded = negated = 0
    # The compares the walk has kept: value id -> (op, operands).  A
    # value's definition dominates its uses, so one map serves the walk.
    compares: Dict[int, tuple] = {}

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
            source = _copy_source(instr.op, args, consts, compares)
            if source is not None:
                subst[instr.result] = source
                dead.add(id(instr))
                replaced += 1
                continue
            if instr.op == "ieq":
                tested = compares.get(_compare_tested(args, consts,
                                                      compares))
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
            existing = lookup(key)
            if existing is not None:
                subst[instr.result] = existing
                dead.add(id(instr))
                replaced += 1
            else:
                scopes[-1][key] = instr.result
                if instr.op in COMPARES:
                    compares[instr.result] = (instr.op, args)

    if replaced:
        for block in func.blocks.values():
            if any(id(i) in dead for i in block.instrs):
                block.instrs = [i for i in block.instrs
                                if id(i) not in dead]
        substitute_values(func, subst)
    # Hoists count as changes: they mutate the IR (converging after one
    # round — a hoisted constant is never hoisted again).
    return replaced + hoisted + folded + negated
