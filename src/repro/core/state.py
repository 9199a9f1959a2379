"""Flow-sensitive specialization state and its meet operator.

The state carried from specialized block to specialized block has four
components:

* ``env`` — the bindings of *generic* SSA values to abstract values
  (:class:`~repro.core.lattice.Const` or :class:`~repro.core.lattice.Dyn`)
  in the specialized function.  This is the specializer's value map
  (paper Fig. 5 ``valuemap``/``valuestate``), made flow-sensitive so that
  SSA validity of the output holds *by construction*: where predecessor
  bindings disagree at a join, a block parameter is created.  This plays
  the role of the paper's SSA-repair "minimal cut" (S3.4) — parameters
  appear only where contexts actually glue different subgraphs together.
  The ``naive`` mode instead turns every binding into a parameter at
  every join, reproducing the paper's ~5x block-parameter blow-up
  ablation.

* ``regs`` — the virtual register file (S4.1): a hidden, zero-initialized
  array held entirely in SSA values.

* ``locals`` — in-memory locals operating as a write-back cache (S4.2):
  each slot carries its canonical address, current value, and dirty flag.

* ``stack`` — the virtualized operand stack (S4.2): a list of slots above
  an unknown base, each with canonical address, value, and dirty flag.

Abstract values compare with ``==``, which is exact (a constant is its
bit pattern), so :func:`meet_states` does not depend on the order of its
contributions.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.lattice import ZERO, AbsVal, Const, Dyn
from repro.ir.types import I64, Type

# A slot key identifies one potential block parameter of a specialized
# block.  Forms: ("env", gvid), ("reg", idx), ("lcl_val", idx),
# ("lcl_addr", idx), ("stk_val", pos), ("stk_addr", pos).
SlotKey = Tuple[str, int]


@dataclasses.dataclass(frozen=True)
class LocalSlot:
    addr: AbsVal
    value: AbsVal
    dirty: bool


@dataclasses.dataclass(frozen=True)
class StackSlot:
    addr: AbsVal
    value: AbsVal
    dirty: bool


class FlowState:
    """Mutable specialization state flowing through one specialized block."""

    __slots__ = ("env", "regs", "locals", "stack")

    def __init__(self):
        self.env: Dict[int, AbsVal] = {}
        self.regs: Dict[int, AbsVal] = {}
        self.locals: Dict[int, LocalSlot] = {}
        self.stack: List[StackSlot] = []

    def copy(self) -> "FlowState":
        other = FlowState()
        other.env = dict(self.env)
        other.regs = dict(self.regs)
        other.locals = dict(self.locals)
        other.stack = list(self.stack)
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowState env={len(self.env)} regs={len(self.regs)} "
                f"locals={len(self.locals)} stack={len(self.stack)}>")


def states_equal(a: FlowState, b: FlowState) -> bool:
    """Cheap whole-state equality for fixpoint change detection.

    Dict/list comparison short-circuits on per-element identity, so with
    interned lattice values and the specializer's stable value minting
    this is close to a pointer walk.
    """
    return (a.env == b.env and a.regs == b.regs
            and a.locals == b.locals and a.stack == b.stack)


def binding_of(state: FlowState, overrides: Dict[int, AbsVal],
               slot: SlotKey) -> Optional[AbsVal]:
    """Look up a slot's value in a predecessor's out-state (with the
    per-edge env overrides applied).  Returns None if absent."""
    kind, index = slot
    if kind == "env":
        return overrides[index] if index in overrides else state.env.get(index)
    if kind == "reg":
        return state.regs.get(index, ZERO)
    if kind == "lcl_val":
        slot_obj = state.locals.get(index)
        return slot_obj.value if slot_obj else None
    if kind == "lcl_addr":
        slot_obj = state.locals.get(index)
        return slot_obj.addr if slot_obj else None
    stack = state.stack
    if kind == "stk_val":
        return stack[index].value if index < len(stack) else None
    if kind == "stk_addr":
        return stack[index].addr if index < len(stack) else None
    raise KeyError(f"bad slot key {slot!r}")


class MeetResult:
    """Outcome of meeting predecessor states into a block entry state."""

    def __init__(self, state: FlowState, param_slots: List[SlotKey]):
        self.state = state
        self.param_slots = param_slots


def _value_descends(old: Optional[AbsVal], new: Optional[AbsVal]) -> bool:
    # Absent is the bottom of a slot: once unavailable, always unavailable.
    return new is None or (old is not None
                           and (isinstance(new, Dyn) or old == new))


def _slot_descends(old, new) -> bool:
    # A local or stack slot; its dirty flag is never cleared.
    return (_value_descends(old.addr, new.addr)
            and _value_descends(old.value, new.value)
            and (new.dirty or not old.dirty))


def descends(old: FlowState, new: FlowState) -> bool:
    """True when entry state ``new`` is at or below ``old`` in the meet's
    order: every env binding and register is equal, or is now a block
    parameter (renamed or not), or is gone; the locals are a subset and
    each slot descends; the stack is dropped, or keeps its depth and each
    slot descends."""
    if not all(_value_descends(old.env.get(key), new.env.get(key))
               for key in set(old.env) | set(new.env)):
        return False
    if not all(_value_descends(old.regs.get(key, ZERO),
                               new.regs.get(key, ZERO))
               for key in set(old.regs) | set(new.regs)):
        return False
    if not (set(new.locals) <= set(old.locals)
            and all(_slot_descends(old.locals[idx], slot)
                    for idx, slot in new.locals.items())):
        return False
    return not new.stack or (
        len(new.stack) == len(old.stack)
        and all(map(_slot_descends, old.stack, new.stack)))


def single_pred_entry_state(state: FlowState,
                            overrides: Dict[int, AbsVal],
                            env_domain: Set[int]) -> MeetResult:
    """Entry state when exactly one predecessor contributes (and the
    key's prior stack depth does not outvote it; never in ``naive``
    mode, which parameterizes every slot).

    Every slot of :func:`meet_states` then keeps the predecessor's
    value, so the slot-by-slot machinery collapses to reusing the
    predecessor's out-state: the env restricted to the entry domain with
    the edge overrides applied, and shallow copies of regs/locals/stack
    sharing its immutable slot objects.  Reducible interpreter CFGs make
    this the overwhelmingly common meet.  Under ``REPRO_OPT_VERIFY=1``
    the specializer recomputes each one with :func:`meet_states` and
    requires a ``states_equal`` result with no parameters.
    """
    result = FlowState()
    env = state.env
    renv = result.env
    for gvid in env_domain:
        if gvid in overrides:
            renv[gvid] = overrides[gvid]
        else:
            value = env.get(gvid)
            if value is not None:
                renv[gvid] = value
    result.regs = dict(state.regs)
    result.locals = dict(state.locals)
    result.stack = list(state.stack)
    return MeetResult(result, [])


def meet_states(
    contributions: Sequence[Tuple[FlowState, Dict[int, AbsVal]]],
    env_domain: Set[int],
    value_type: Callable[[int], Type],
    param_for: Callable[[SlotKey, Type], int],
    naive: bool = False,
    prior_depth: Optional[int] = None,
) -> MeetResult:
    """Meet predecessor (out-state, env-overrides) pairs into an entry
    state for a specialized block.

    ``env_domain`` is the set of generic value ids that must be bound at
    entry (live-in plus the generic block's parameters).  ``param_for``
    allocates (or retrieves, stably) the block-parameter value id for a
    slot.  ``naive=True`` parameterizes every slot (the paper's S3.4
    max-SSA ablation).

    The meet is monotone (see :func:`descends`).  Stack depth is the one
    part its contributors alone do not order — disagreeing depths drop
    the stack, a later agreement would restore it — so ``prior_depth``,
    the block's last entry depth, votes too: a dropped stack stays
    dropped.
    """
    result = FlowState()
    param_slots: List[SlotKey] = []

    def meet_slot(slot: SlotKey, ty: Type,
                  values: List[Optional[AbsVal]]) -> Optional[AbsVal]:
        """Meet one slot: same everywhere -> keep; else block param.
        None anywhere -> slot is unavailable (caller decides)."""
        if any(v is None for v in values):
            return None
        first = values[0]
        if not naive and all(v == first for v in values[1:]):
            return first
        vid = param_for(slot, ty)
        param_slots.append(slot)
        return Dyn(vid, ty)

    # --- env ------------------------------------------------------------
    for gvid in sorted(env_domain):
        slot = ("env", gvid)
        values = [binding_of(s, o, slot) for s, o in contributions]
        ty = value_type(gvid)
        met = meet_slot(slot, ty, values)
        if met is not None:
            result.env[gvid] = met
        # A missing binding can only come from a stale edge; leaving the
        # slot out makes any genuine use fail loudly during transcription.

    # --- virtual registers ----------------------------------------------
    reg_keys: Set[int] = set()
    for state, _ in contributions:
        reg_keys.update(state.regs)
    for idx in sorted(reg_keys):
        slot = ("reg", idx)
        values = [binding_of(s, o, slot) for s, o in contributions]
        met = meet_slot(slot, I64, values)
        assert met is not None  # regs default to Const(0), never None
        result.regs[idx] = met

    # --- locals (write-back cache) ----------------------------------------
    local_keys = None
    for state, _ in contributions:
        keys = set(state.locals)
        local_keys = keys if local_keys is None else (local_keys & keys)
    for idx in sorted(local_keys or ()):
        addr_values = [binding_of(s, o, ("lcl_addr", idx))
                       for s, o in contributions]
        val_values = [binding_of(s, o, ("lcl_val", idx))
                      for s, o in contributions]
        addr = meet_slot(("lcl_addr", idx), I64, addr_values)
        value = meet_slot(("lcl_val", idx), I64, val_values)
        dirty = any(s.locals[idx].dirty for s, _ in contributions)
        result.locals[idx] = LocalSlot(addr, value, dirty)

    # --- operand stack -----------------------------------------------------
    depths = {len(s.stack) for s, _ in contributions}
    if prior_depth is not None:
        depths.add(prior_depth)
    if len(depths) == 1:
        depth = depths.pop()
        for pos in range(depth):
            addr = meet_slot(("stk_addr", pos), I64,
                             [binding_of(s, o, ("stk_addr", pos))
                              for s, o in contributions])
            value = meet_slot(("stk_val", pos), I64,
                              [binding_of(s, o, ("stk_val", pos))
                               for s, o in contributions])
            dirty = any(s.stack[pos].dirty for s, _ in contributions)
            result.stack.append(StackSlot(addr, value, dirty))
    # Mismatched depths: abstract stack is dropped entirely; phase 2
    # flushes each predecessor's dirty slots on its edge.

    return MeetResult(result, param_slots)
