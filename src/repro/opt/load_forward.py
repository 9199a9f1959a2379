"""Redundant-load forwarding across basic blocks, and address rebasing.

Residual code out of the specializer re-loads lifted interpreter state
(register arrays, frame slots) many times between stores.  This pass
removes a load when the loaded value is already available:

* **load-load**: an earlier load of the same address with the same width
  and signedness, with no intervening may-aliasing store or call;
* **store-load**: an earlier full-width store to the same address
  (``store64``/``storef64`` only — sub-word stores truncate, so their
  stored operand is not the value a later load would produce).

Addresses are tracked symbolically as ``(base value, byte offset)``
descriptors, computed by looking through ``iadd``/``isub``-with-constant
chains and folding in each memory op's static immediate offset
(:func:`_addr_of`, the one address-chain walker).  An op's effective
address is ``(base + offset) mod 2**64`` (:mod:`repro.ir.semantics`),
as ``iadd`` wraps, so the descriptor is exactly the address.  Two
accesses with the *same* base and disjoint offset ranges (modulo 2^64)
cannot alias; everything else conservatively may, so a store kills all
facts it cannot be proven disjoint from, and calls kill everything
(callees may write any memory).  Global ops touch the module's global
environment, not linear memory, and kill nothing.

Availability is a forward must-dataflow at block granularity: a fact
``(load-op, base, offset) -> value`` enters a block only when *every*
predecessor provides it with the same SSA value.  The meet starts from
the optimistic top element so facts survive loop back edges; at the
fixpoint each fact is justified along all entry paths, which also
guarantees the forwarded definition dominates the rewritten use.

Dropping a forwarded load preserves traps: the surviving access touches
the same address with the same width, so it traps exactly when the
dropped load would have.

The same rewrite walk *rebases* every surviving load and store onto its
descriptor: when the base is a value (not an absolute address) and the
offset lies in ``[0, MAX_OFFSET)``, the op addresses the base at that
offset directly, the way an instruction selector folds an add into an
addressing mode.  It reads, writes and traps at the same effective
address, and the chain's ``iadd``/``isub`` left without a use is DCE's.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.cfg import predecessors, reverse_postorder
from repro.ir.function import Function
from repro.ir.instructions import MASK64, Instr
from repro.ir.semantics import LOADS, STORES
from repro.opt.util import substitute_values

# Full-width stores whose operand is bit-identical to a matching load.
STORE_TO_LOAD = {"store64": "load64", "storef64": "loadf64"}

# A memory op is rebased onto its address chain's base only when the
# chain's net offset is below this: offsets stay small and non-negative,
# and a net-negative delta (an offset near 2**64) stays in its ``isub``.
MAX_OFFSET = 2 ** 31

# (base value id or None for absolute, byte offset in [0, 2**64)).
Addr = Tuple[Optional[int], int]
# (load op, base, offset) -> available value id.
Facts = Dict[Tuple[str, Optional[int], int], int]


def _build_defs(func: Function) -> Dict[int, Instr]:
    defs: Dict[int, Instr] = {}
    for block in func.blocks.values():
        for instr in block.instrs:
            if instr.result is not None:
                defs[instr.result] = instr
    return defs


def _addr_of(defs: Dict[int, Instr], vid: int, imm) -> Addr:
    """Resolve ``vid + imm`` to a (base, offset) descriptor."""
    offset = int(imm or 0)
    for _ in range(64):  # chain-depth guard
        instr = defs.get(vid)
        if instr is None:
            break
        if instr.op == "iconst":
            return (None, (offset + instr.imm) & MASK64)
        if instr.op in ("iadd", "isub"):
            left = defs.get(instr.args[0])
            right = defs.get(instr.args[1])
            if right is not None and right.op == "iconst":
                delta = right.imm if instr.op == "iadd" else -right.imm
                offset += delta
                vid = instr.args[0]
                continue
            if (instr.op == "iadd" and left is not None
                    and left.op == "iconst"):
                offset += left.imm
                vid = instr.args[1]
                continue
        break
    return (vid, offset & MASK64)


def _disjoint(a: Addr, a_size: int, b: Addr, b_size: int) -> bool:
    """True when the two accesses provably do not overlap."""
    if a[0] != b[0]:
        return False  # different (or unknown) bases: may alias
    forward = (b[1] - a[1]) & MASK64
    backward = (a[1] - b[1]) & MASK64
    return forward >= a_size and backward >= b_size


def _apply_instr(facts: Facts, instr: Instr, addr: Optional[Addr]) -> None:
    """Transfer function for one instruction (mutates ``facts``);
    ``addr`` is a memory op's descriptor."""
    op = instr.op
    if instr.info().is_call:
        facts.clear()
        return
    if op in STORES:
        size = STORES[op].size
        for key in list(facts):
            load_op, base, offset = key
            if not _disjoint(addr, size, (base, offset), LOADS[load_op].size):
                del facts[key]
        forwarded = STORE_TO_LOAD.get(op)
        if forwarded is not None:
            facts[(forwarded, addr[0], addr[1])] = instr.args[1]
        return
    if op in LOADS:
        # setdefault, not assignment: when a fact for this address
        # already exists, the earlier (dominating) value must survive,
        # or facts would never stabilize across loop back edges and
        # loop-carried redundant loads would stay.
        facts.setdefault((op, addr[0], addr[1]), instr.result)


def _meet(a: Optional[Facts], b: Facts) -> Facts:
    if a is None:  # top element
        return dict(b)
    return {key: vid for key, vid in a.items() if b.get(key) == vid}


def forward_loads(func: Function) -> int:
    """Forward redundant loads and rebase memory ops on their address
    chain's base; returns the number of loads removed plus the number
    of ops rebased."""
    if func.entry is None or func.entry not in func.blocks:
        return 0
    defs = _build_defs(func)
    order = reverse_postorder(func)
    reachable = set(order)
    preds = predecessors(func)
    # Each memory op's descriptor, resolved once: id(instr) -> Addr.
    addrs: Dict[int, Addr] = {
        id(instr): _addr_of(defs, instr.args[0], instr.imm)
        for bid in order for instr in func.blocks[bid].instrs
        if instr.op in LOADS or instr.op in STORES}

    # Optimistic fixpoint: None is top (not yet computed).
    avail_out: Dict[int, Optional[Facts]] = {bid: None for bid in order}
    avail_in: Dict[int, Facts] = {}
    changed = True
    while changed:
        changed = False
        for bid in order:
            if bid == func.entry:
                in_facts: Facts = {}
            else:
                merged: Optional[Facts] = None
                for pred in preds[bid]:
                    if pred not in reachable:
                        continue
                    pred_out = avail_out[pred]
                    if pred_out is None:
                        continue  # top: contributes no constraint
                    merged = _meet(merged, pred_out)
                in_facts = merged if merged is not None else {}
            avail_in[bid] = in_facts
            out = dict(in_facts)
            for instr in func.blocks[bid].instrs:
                _apply_instr(out, instr, addrs.get(id(instr)))
            if out != avail_out[bid]:
                avail_out[bid] = out
                changed = True

    subst: Dict[int, int] = {}
    removed = rebased = 0
    for bid in order:
        facts = dict(avail_in[bid])
        block = func.blocks[bid]
        kept = []
        for instr in block.instrs:
            addr = addrs.get(id(instr))
            if addr is not None:
                if instr.op in LOADS:
                    hit = facts.get((instr.op, addr[0], addr[1]))
                    if hit is not None and hit != instr.result:
                        subst[instr.result] = hit
                        removed += 1
                        continue
                base, offset = addr
                if (base is not None and offset < MAX_OFFSET
                        and (base, offset) != (instr.args[0], instr.imm or 0)):
                    # The base's definition dominates the chain's, so
                    # the op may address it directly; the chain's
                    # ``iadd``s are left to DCE.
                    instr.args = (base,) + instr.args[1:]
                    instr.imm = offset
                    rebased += 1
            _apply_instr(facts, instr, addr)
            kept.append(instr)
        block.instrs = kept
    substitute_values(func, subst)
    return removed + rebased
