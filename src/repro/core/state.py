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


def _abs_equal(a: Optional[AbsVal], b: Optional[AbsVal]) -> bool:
    # Interned abstract values (repro.core.lattice) make the identity
    # check the common case; == is the structural fallback.
    return a is b or a == b


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
        if index in overrides:
            return overrides[index]
        return state.env.get(index)
    if kind == "reg":
        return state.regs.get(index, ZERO)
    if kind == "lcl_val":
        slot_obj = state.locals.get(index)
        return slot_obj.value if slot_obj else None
    if kind == "lcl_addr":
        slot_obj = state.locals.get(index)
        return slot_obj.addr if slot_obj else None
    if kind == "stk_val":
        if index < len(state.stack):
            return state.stack[index].value
        return None
    if kind == "stk_addr":
        if index < len(state.stack):
            return state.stack[index].addr
        return None
    raise KeyError(f"bad slot key {slot!r}")


class MeetResult:
    """Outcome of meeting predecessor states into a block entry state."""

    def __init__(self, state: FlowState, param_slots: List[SlotKey]):
        self.state = state
        self.param_slots = param_slots


def unstable_slots(old: FlowState, new: FlowState) -> Set[SlotKey]:
    """Slots whose abstract value differs between two entry states.

    Used by the convergence damper: slots that keep changing across
    revisits (typically because a predecessor block re-emits its
    instructions with fresh SSA ids on every rebuild) are pinned to
    stable block parameters; slots with genuinely stable values —
    constants like the interpreter pc — are left alone.
    """
    changed: Set[SlotKey] = set()
    for key in set(old.env) | set(new.env):
        if old.env.get(key) != new.env.get(key):
            changed.add(("env", key))
    for key in set(old.regs) | set(new.regs):
        if old.regs.get(key) != new.regs.get(key):
            changed.add(("reg", key))
    for key in set(old.locals) | set(new.locals):
        old_slot = old.locals.get(key)
        new_slot = new.locals.get(key)
        if old_slot is None or new_slot is None:
            continue  # structural add/drop is monotone already
        if old_slot.addr != new_slot.addr:
            changed.add(("lcl_addr", key))
        if old_slot.value != new_slot.value:
            changed.add(("lcl_val", key))
    for pos in range(min(len(old.stack), len(new.stack))):
        if old.stack[pos].addr != new.stack[pos].addr:
            changed.add(("stk_addr", pos))
        if old.stack[pos].value != new.stack[pos].value:
            changed.add(("stk_val", pos))
    return changed


def single_pred_entry_state(state: FlowState,
                            overrides: Dict[int, AbsVal],
                            env_domain: Set[int]) -> MeetResult:
    """Entry state when exactly one predecessor contributes.

    With a single contributor and no forced parameters, every slot of
    :func:`meet_states` trivially keeps the predecessor's value, so the
    slot-by-slot meet machinery (``binding_of`` per slot, ``meet_slot``
    closure calls) collapses to reusing the predecessor's out-state
    components directly: the env is restricted to the entry domain with
    the edge overrides applied, and regs/locals/stack are shallow
    copies sharing the predecessor's (immutable) slot objects.  The
    result is value-identical to the full meet — asserted byte-for-byte
    by the fixpoint determinism tier — at a fraction of the cost, which
    matters because reducible interpreter CFGs make one-predecessor
    blocks the overwhelmingly common case.

    Callers must not take this path when parameters could be forced
    (``naive`` SSA mode, pinned slots, ``force_all_params``).
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
    force_all_params: bool = False,
    pinned_slots: Optional[Set[SlotKey]] = None,
) -> MeetResult:
    """Meet predecessor (out-state, env-overrides) pairs into an entry
    state for a specialized block.

    ``env_domain`` is the set of generic value ids that must be bound at
    entry (live-in plus the generic block's parameters).  ``param_for``
    allocates (or retrieves, stably) the block-parameter value id for a
    slot.  ``naive=True`` parameterizes every slot (the paper's S3.4
    max-SSA ablation); ``force_all_params`` has the same effect and is
    the last-resort convergence safeguard.  ``pinned_slots`` forces
    specific slots to parameters — the fine-grained safeguard used to
    damp SSA-id churn in cyclic regions without losing constants that
    are actually stable.
    """
    make_params = naive or force_all_params
    pinned_slots = pinned_slots or set()
    result = FlowState()
    param_slots: List[SlotKey] = []

    def meet_slot(slot: SlotKey, ty: Type,
                  values: List[Optional[AbsVal]]) -> Optional[AbsVal]:
        """Meet one slot: same everywhere -> keep; else block param.
        None anywhere -> slot is unavailable (caller decides)."""
        if any(v is None for v in values):
            return None
        first = values[0]
        if (not make_params and slot not in pinned_slots
                and all(_abs_equal(v, first) for v in values[1:])):
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
        if addr is None or value is None:
            continue
        dirty = any(s.locals[idx].dirty for s, _ in contributions)
        result.locals[idx] = LocalSlot(addr, value, dirty)

    # --- operand stack -----------------------------------------------------
    depths = {len(s.stack) for s, _ in contributions}
    if len(depths) == 1:
        depth = depths.pop()
        for pos in range(depth):
            addr = meet_slot(("stk_addr", pos), I64,
                             [binding_of(s, o, ("stk_addr", pos))
                              for s, o in contributions])
            value = meet_slot(("stk_val", pos), I64,
                              [binding_of(s, o, ("stk_val", pos))
                               for s, o in contributions])
            if addr is None or value is None:
                # Truncate at the first incoherent position: everything
                # above it is dropped too (flushed at the edges).
                break
            dirty = any(s.stack[pos].dirty for s, _ in contributions)
            result.stack.append(StackSlot(addr, value, dirty))
    # Mismatched depths: abstract stack is dropped entirely; phase 2
    # flushes each predecessor's dirty slots on its edge.

    return MeetResult(result, param_slots)
