"""The weval transform: user-context-controlled constant propagation.

This is the paper's core algorithm (Fig. 5).  Given a generic function
and a :class:`~repro.core.request.SpecializationRequest`, it produces a
new function in which:

* blocks are duplicated per specialization *context* — contexts are
  driven by the interpreter's own ``update_context(pc)`` annotations, so
  the interpreter loop unrolls over the (constant) bytecode;
* constant propagation runs while transcribing, folding loads from
  promised-constant memory, so the result is a *bytecode-erased
  compilation*: no loads from the bytecode stream survive and dispatch
  branches fold away;
* a constant that a residual instruction still needs is defined once
  per function, in the entry block (:meth:`_Specializer._mat`);
* a run-time-data-dependent branch stays a residual branch; the
  interpreter keeps the next pc constant by updating the context on each
  arm (S3.3's structural form);
* interpreter state annotated with register/local/stack intrinsics is
  lifted into SSA values with lazy write-back (S4).

The transform is a fixpoint: specialized blocks are keyed by
⟨context, generic block⟩; entry states are met over predecessor edges
and blocks are rebuilt when their entry state changes.  SSA validity of
the output holds by construction (see :mod:`repro.core.state`); the
``naive`` SSA mode reproduces the paper's S3.4 parameter-blow-up
ablation.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.core import context as ctx_mod
from repro.core.intrinsics import INTRINSICS
from repro.core.lattice import (
    ZERO,
    AbsVal,
    Const,
    ConstMemoryImage,
    Dyn,
    fold_pure_op,
    intern_const,
    intern_counters,
)
from repro.core.request import (
    Runtime,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
    SpeculatedConst,
)
from repro.core.state import (
    FlowState,
    LocalSlot,
    MeetResult,
    SlotKey,
    StackSlot,
    binding_of,
    descends,
    meet_states,
    single_pred_entry_state,
    states_equal,
)
from repro.core.stats import SpecializationStats
from repro.ir.cfg import reachable_blocks, reverse_postorder
from repro.ir.renumber import canonicalize_function
from repro.ir.function import Block, Function
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
from repro.ir.semantics import LOADS
from repro.ir.types import F64, I64, Type
from repro.ir.verifier import verify_enabled_by_env


class SpecializeError(Exception):
    """Specialization failed (bad request, assert_const violation, ...)."""


# Safety valves of the fixpoint.  Constants, not options: a value that
# can change residual bytes must either sit in the cache key or not
# vary, and no caller ever varied these.
MAX_ITERATIONS = 2_000_000          # worklist pops before "did not converge"
# Once this many distinct contexts exist, further new contexts are
# collapsed into the shared dynamic context.  Contexts only steer code
# duplication, never correctness, so this is a sound safety valve
# against runaway specialization of dynamically-unreachable paths.
MAX_CONTEXTS = 100_000


def _option(key: Optional[str], **kwargs):
    """A :class:`SpecializeOptions` field tagged with the cache key it
    is part of (:mod:`repro.core.cache`): ``"residual"`` changes residual
    IR bytes, ``None`` does not — how or whether output is produced,
    never what it is."""
    return dataclasses.field(metadata={"key": key}, **kwargs)


@dataclasses.dataclass
class SpecializeOptions:
    """Tunables for the transform; see :func:`_option` for the tags."""

    # "minimal" | "naive" (S3.4 ablation)
    ssa_mode: str = _option("residual", default="minimal")
    # "default" runs the mid-end (opt.pipeline.PASSES), "none" does not
    opt_config: str = _option("residual", default="default")
    # Execution tier for the residual code: "vm" interprets the IR,
    # "py" compiles it to native Python functions (repro.backend); a
    # function whose emit fails is a failed request, contained like a
    # specialize crash, and keeps its lower tier.  Unkeyed: residual
    # IR is backend-independent, so a store filled under one backend
    # warm-starts a worker running the other (or a staged one).
    backend: str = _option(None, default="vm")
    # A constant, not a field: it survives only for its reader,
    # benchmarks/ledger/ledger_workloads.py::_measure_emitted.
    emit_mode = "structured"
    # Compilation-engine configuration (repro.pipeline), said here and
    # nowhere else: ``cache_dir`` roots the persistent on-disk artifact
    # store (None disables persistence).
    cache_dir: Optional[str] = _option(None, default=None)
    # Deterministic fault injection for the robustness tier
    # (repro.pipeline.faults.FaultPlan, or None for production).  The
    # plan only *fails* pipeline stages — it never changes what a
    # successful compile produces.
    fault_plan: Optional[object] = _option(None, default=None)

    def __post_init__(self):
        if self.ssa_mode not in ("minimal", "naive"):
            raise ValueError(f"bad ssa_mode {self.ssa_mode!r}")
        if self.backend not in ("vm", "py"):
            raise ValueError(f"bad backend {self.backend!r}")
        from repro.opt.pipeline import OPT_CONFIGS
        if self.opt_config not in OPT_CONFIGS:
            raise ValueError(f"bad opt_config {self.opt_config!r}")


Key = Tuple[tuple, int]  # (context, generic block id)

_PROLOGUE_KEY: Key = (("__prologue__",), -1)

# Per-opcode transcription dispatch, precomputed once at import:
# ``op -> (pure, its repro.ir.semantics load row or None)``.  The
# transcription loop is one of the two hottest paths of cold AOT (with
# meet_states); folding the OPCODES probe and the load-table probe into
# a single dict hit removes a lookup per transcribed instruction.
_TRANSCRIBE_DISPATCH: Dict[str, tuple] = {
    op: (info.pure, LOADS.get(op)) for op, info in OPCODES.items()
}


@dataclasses.dataclass
class _Edge:
    position: int
    succ_key: Key
    overrides: Dict[int, AbsVal]
    call: BlockCall


class _KeyInfo:
    """Bookkeeping for one specialized block (one ⟨context, block⟩ pair).

    ``counts`` is what the last build transcribed (S6.2's state sites,
    folded loads and branches, then phase 2's fix-up stores); ``run``
    adds up the reachable keys', so the counters count the residual.

    ``contributors`` is the set of in-edges the last build was met from;
    only the descent check (``REPRO_OPT_VERIFY=1``) records and reads it.
    """

    __slots__ = ("key", "spec_block", "entry_state",
                 "out_state", "edges_out", "in_edges", "param_ids",
                 "param_slots", "built", "contributors", "counts",
                 "priority")

    def __init__(self, key: Key, spec_block: Block):
        self.key = key
        self.spec_block = spec_block
        self.entry_state: Optional[FlowState] = None
        self.out_state: Optional[FlowState] = None
        self.edges_out: List[_Edge] = []
        self.in_edges: Dict[Tuple[Key, int], Dict[int, AbsVal]] = {}
        self.param_ids: Dict[SlotKey, int] = {}
        self.param_slots: List[SlotKey] = []
        self.built = False
        self.contributors: Set[Tuple[Key, int]] = set()
        self.counts: Dict[str, int] = defaultdict(int)
        self.priority: Tuple[int, int] = (0, 0)


# ----------------------------------------------------------------------
# Preparation: everything the transform derives from the generic body
# alone, and only reads afterwards.
# ----------------------------------------------------------------------
def _prepared(generic: Function) -> tuple:
    """``(live-in, block param ids, RPO index)`` of ``generic``.  A
    frozen generic (see :class:`~repro.ir.function.Function`) keeps the
    tuple, so each interpreter is prepared once per process, not once
    per request.  The transform only reads the generic body
    (``test_futamura.py::test_generic_is_only_read``, and
    ``check_frozen`` under ``REPRO_OPT_VERIFY=1``)."""
    prepared = generic.prepared
    if prepared is None:
        prepared = (*_liveness(generic),
                    {bid: i for i, bid in
                     enumerate(reverse_postorder(generic))})
        if generic.fingerprint is not None:
            generic.prepared = prepared
    return prepared


def _liveness(func: Function):
    """Backward liveness: per-block live-in sets and param id lists."""
    uses: Dict[int, Set[int]] = {}
    defs: Dict[int, Set[int]] = {}
    params: Dict[int, List[int]] = {}
    for bid, block in func.blocks.items():
        block_defs = {v for v, _ in block.params}
        block_uses: Set[int] = set()
        for instr in block.instrs:
            block_uses.update(instr.args)
            if instr.result is not None:
                block_defs.add(instr.result)
        if block.terminator is not None:
            block_uses.update(terminator_values(block.terminator))
        uses[bid] = block_uses - block_defs
        defs[bid] = block_defs
        params[bid] = [v for v, _ in block.params]

    succs: Dict[int, List[int]] = {}
    for bid, block in func.blocks.items():
        succs[bid] = ([c.block for c in block.terminator.targets()]
                      if block.terminator else [])

    live_in: Dict[int, Set[int]] = {bid: set(uses[bid])
                                    for bid in func.blocks}
    changed = True
    while changed:
        changed = False
        for bid in func.blocks:
            live_out: Set[int] = set()
            for succ in succs[bid]:
                live_out.update(live_in[succ])
            new = uses[bid] | (live_out - defs[bid])
            if new != live_in[bid]:
                live_in[bid] = new
                changed = True
    return live_in, params


class _Specializer:
    def __init__(self, module: Module, request: SpecializationRequest,
                 options: SpecializeOptions,
                 memory: Optional[bytes] = None):
        self.module = module
        self.request = request
        self.options = options
        self.stats = SpecializationStats()

        generic = module.functions.get(request.generic)
        if generic is None:
            raise SpecializeError(f"unknown function {request.generic!r}")
        if len(request.args) != len(generic.sig.params):
            raise SpecializeError(
                f"{request.generic}: request has {len(request.args)} arg "
                f"modes, function has {len(generic.sig.params)} params")

        self.generic = generic
        self.live_in, self.block_params, self._rpo_index = \
            _prepared(generic)

        snapshot = bytes(memory if memory is not None
                         else module.memory_init)
        self.image = ConstMemoryImage(snapshot)
        for arg, mode in zip(generic.sig.params, request.args):
            if isinstance(mode, SpecializedMemory):
                self.image.add_range(mode.pointer, mode.length)
        for start, length in request.extra_const_memory:
            self.image.add_range(start, length)

        self.out = Function(request.name(), generic.sig)
        self.infos: Dict[Key, _KeyInfo] = {}
        self.queued: Set[Key] = set()
        self._iterations = 0
        self._seen_contexts: Set[tuple] = set()

        # Worklist policy: a priority queue ordered by (context discovery
        # index, generic-block reverse-postorder index).  Within one
        # context the generic CFG is flowed predecessors-first, and
        # contexts are flowed roughly in the order specialization
        # discovers them, which tracks forward progress through the
        # unrolled interpreter.  Processing predecessors before successors
        # lets meets converge in ~one pass over reducible regions instead
        # of re-flowing.
        self._heap: List[Tuple[Tuple[int, int], Key]] = []
        self._rpo_unreachable = len(self._rpo_index)
        self._ctx_order: Dict[tuple, int] = {}
        # The ``counts`` of the key being built (see _KeyInfo).
        self._counts: Dict[str, int] = {}
        # Each constant's one definition (see _mat).
        self._consts: Dict[Const, int] = {}
        self._verify = verify_enabled_by_env()

    # ------------------------------------------------------------------
    # Worklist management.
    # ------------------------------------------------------------------
    def _get_or_create(self, key: Key) -> _KeyInfo:
        info = self.infos.get(key)
        if info is None:
            info = _KeyInfo(key, self.out.new_block())
            ctx, gblock = key
            order = self._ctx_order.setdefault(ctx, len(self._ctx_order))
            info.priority = (order, self._rpo_index.get(
                gblock, self._rpo_unreachable + gblock))
            self.infos[key] = info
            self.stats.contexts_created += 1
        return info

    def _enqueue(self, key: Key) -> None:
        if key not in self.queued:
            self.queued.add(key)
            # The priority pair is a bijection of the key (one context
            # index, one block index each), so heap comparisons never
            # reach the key itself.
            heapq.heappush(self._heap, (self.infos[key].priority, key))

    def _pop(self) -> Key:
        return heapq.heappop(self._heap)[1]

    # ------------------------------------------------------------------
    # Driver.
    # ------------------------------------------------------------------
    def run(self) -> Function:
        intern_hits0, intern_misses0 = intern_counters()
        self._seed()
        while self.queued:
            self._iterations += 1
            if self._iterations > MAX_ITERATIONS:
                raise SpecializeError(
                    f"{self.request.name()}: specialization did not "
                    f"converge after {self._iterations} iterations")
            key = self._pop()
            self.queued.discard(key)
            self._process(key)
        self._fill_edges()
        reachable = reachable_blocks(self.out)
        for info in self.infos.values():
            if info.spec_block.id in reachable:
                for name, count in info.counts.items():
                    setattr(self.stats, name,
                            getattr(self.stats, name) + count)
        # Erase the fixpoint history from the numbering: canonical ids
        # make the output independent of revisit counts (and drop debris
        # blocks from abandoned edges), which is what lets two engine
        # variants be compared byte for byte.
        canonicalize_function(self.out)
        self.stats.output_blocks = len(self.out.blocks)
        self.stats.output_instrs = self.out.num_instrs()
        intern_hits1, intern_misses1 = intern_counters()
        self.stats.intern_hits = intern_hits1 - intern_hits0
        self.stats.intern_misses = intern_misses1 - intern_misses0
        return self.out

    def _seed(self) -> None:
        prologue = self.out.new_block()
        self.out.entry = prologue.id
        seed_env: Dict[int, AbsVal] = {}
        for (gvid, ty), mode in zip(self.generic.entry_block().params,
                                    self.request.args):
            if isinstance(mode, Runtime):
                vid = self.out.add_block_param(prologue, ty)
                seed_env[gvid] = Dyn(vid, ty)
            elif isinstance(mode, SpecializedConst):
                vid = self.out.add_block_param(prologue, ty)  # ignored
                value = mode.value
                if ty == I64:
                    value = int(value) & ((1 << 64) - 1)
                else:
                    value = float(value)
                seed_env[gvid] = intern_const(value, ty)
            elif isinstance(mode, SpecializedMemory):
                vid = self.out.add_block_param(prologue, ty)  # ignored
                if ty != I64:
                    raise SpecializeError("SpecializedMemory arg must be i64")
                seed_env[gvid] = intern_const(mode.pointer, ty)
            elif isinstance(mode, SpeculatedConst):
                # Guarded speculation: fold the profile-observed value as
                # a constant, but keep the parameter live and check it at
                # entry — a mismatch at run time deopts to the generic
                # function instead of computing with a wrong constant.
                vid = self.out.add_block_param(prologue, ty)
                if ty != I64:
                    raise SpecializeError("SpeculatedConst arg must be i64")
                value = int(mode.value) & ((1 << 64) - 1)
                prologue.instrs.append(
                    Instr("guard", None, (vid,), value, None))
                seed_env[gvid] = intern_const(value, ty)
            else:
                raise SpecializeError(f"bad arg mode {mode!r}")

        entry_key: Key = (ctx_mod.ROOT, self.generic.entry)
        entry_info = self._get_or_create(entry_key)
        call = BlockCall(entry_info.spec_block.id, ())
        prologue.terminator = Jump(call)

        prologue_info = _KeyInfo(_PROLOGUE_KEY, prologue)
        prologue_info.built = True
        prologue_info.out_state = FlowState()
        prologue_info.edges_out = [_Edge(0, entry_key, seed_env, call)]
        self.infos[_PROLOGUE_KEY] = prologue_info
        entry_info.in_edges[(_PROLOGUE_KEY, 0)] = seed_env
        self._enqueue(entry_key)

    # ------------------------------------------------------------------
    # Per-key processing: meet entries, rebuild if changed.
    # ------------------------------------------------------------------
    def _process(self, key: Key) -> None:
        info = self.infos[key]
        self.stats.block_visits += 1
        contributions = []
        edges = []
        for edge, overrides in info.in_edges.items():
            pred = self.infos.get(edge[0])
            if pred is None or pred.out_state is None:
                continue
            contributions.append((pred.out_state, overrides))
            edges.append(edge)
        if not contributions:
            return

        gblock_id = key[1]
        env_domain = set(self.live_in[gblock_id])
        env_domain.update(self.block_params[gblock_id])

        # The key's last entry depth votes with its contributors' (see
        # meet_states), which is what keeps the fixpoint monotone.
        prior_depth = (len(info.entry_state.stack)
                       if info.entry_state is not None else None)

        def param_for(slot: SlotKey, ty: Type) -> int:
            vid = info.param_ids.get(slot)
            if vid is None:
                vid = self.out.new_value(ty)
                info.param_ids[slot] = vid
            return vid

        def full_meet(contributions) -> MeetResult:
            return meet_states(
                contributions, env_domain,
                lambda gvid: self.generic.value_types[gvid],
                param_for,
                naive=(self.options.ssa_mode == "naive"),
                prior_depth=prior_depth)

        pred_state, pred_overrides = contributions[0]
        if (len(contributions) == 1 and self.options.ssa_mode != "naive"
                and prior_depth in (None, len(pred_state.stack))):
            # Sole-contributor fast path: no join can make a block
            # parameter, so the meet is the predecessor's out-state.
            self.stats.meets_single_pred += 1
            meet = single_pred_entry_state(pred_state, pred_overrides,
                                           env_domain)
            if self._verify:
                full = full_meet(contributions)
                if full.param_slots or not states_equal(meet.state,
                                                        full.state):
                    raise SpecializeError(
                        f"{self.request.name()}: the single-predecessor "
                        f"meet of {key} differs from the full meet")
        else:
            meet = full_meet(contributions)
            if self._verify and len(contributions) > 1:
                rev = full_meet(contributions[::-1])
                if (rev.param_slots != meet.param_slots
                        or not states_equal(meet.state, rev.state)):
                    raise SpecializeError(
                        f"{self.request.name()}: the meet of {key} depends "
                        f"on the order of its contributions")
        self.stats.meets_performed += 1
        if info.built and info.entry_state is not None \
                and states_equal(meet.state, info.entry_state):
            info.param_slots = meet.param_slots
            return
        if self._verify:
            if (info.entry_state is not None
                    and info.contributors <= set(edges)
                    and not descends(info.entry_state, meet.state)):
                raise SpecializeError(
                    f"{self.request.name()}: the entry state of {key} "
                    f"rose without losing a contributor")
            info.contributors = set(edges)
        if info.built:
            self.stats.block_revisits += 1
        info.entry_state = meet.state
        info.param_slots = meet.param_slots
        self._rebuild(info)

    # ------------------------------------------------------------------
    # Block transcription.
    # ------------------------------------------------------------------
    def _slot_type(self, slot: SlotKey) -> Type:
        if slot[0] == "env":
            return self.generic.value_types[slot[1]]
        return I64

    def _rebuild(self, info: _KeyInfo) -> None:
        ctx, gblock_id = info.key
        gblock = self.generic.blocks[gblock_id]
        block = info.spec_block
        block.params = [(info.param_ids[slot], self._slot_type(slot))
                        for slot in info.param_slots]
        block.instrs = []
        block.terminator = None

        # Drop old outgoing edge registrations; they will be re-added.
        for edge in info.edges_out:
            succ = self.infos.get(edge.succ_key)
            if succ is not None:
                succ.in_edges.pop((info.key, edge.position), None)
        info.edges_out = []

        state = info.entry_state.copy()
        self._counts = info.counts = defaultdict(int)
        for instr in gblock.instrs:
            if instr.op == "call" and instr.imm in INTRINSICS:
                ctx = self._transcribe_intrinsic(block, state, ctx, instr)
            else:
                self._transcribe_instr(block, state, instr)
        self._transcribe_terminator(info, block, state, ctx, gblock)
        info.out_state = state
        info.built = True

    # --- plain instructions ------------------------------------------------
    def _mat(self, value: AbsVal) -> int:
        """The SSA value of an abstract value: a ``Dyn``'s own id, or a
        constant's one definition in this function.

        A constant is defined once, in the prologue (the residual's entry
        block, which dominates every block), the first time any block
        needs it."""
        if isinstance(value, Dyn):
            return value.vid
        vid = self._consts.get(value)
        if vid is None:
            op = "iconst" if value.ty == I64 else "fconst"
            vid = self.out.new_value(value.ty)
            self.out.blocks[self.out.entry].instrs.append(
                Instr(op, vid, (), value.value, value.ty))
            self._consts[value] = vid
        return vid

    def _transcribe_instr(self, block: Block, state: FlowState,
                          instr: Instr) -> None:
        op = instr.op
        pure, load = _TRANSCRIBE_DISPATCH[op]
        try:
            abs_args = [state.env[a] for a in instr.args]
        except KeyError as exc:
            raise SpecializeError(
                f"{self.request.name()}: value v{exc.args[0]} not bound "
                f"during transcription (internal error)") from exc

        # Loads from promised-constant memory fold to constants: this is
        # the bytecode-erasing step.
        if load is not None and isinstance(abs_args[0], Const):
            addr = (abs_args[0].value + (instr.imm or 0)) & ((1 << 64) - 1)
            folded = self.image.read(addr, load)
            if folded is not None:
                state.env[instr.result] = intern_const(
                    folded, F64 if load.float else I64)
                self._counts["loads_folded_from_const_memory"] += 1
                return

        # Pure constant folding.
        if pure and all(isinstance(a, Const) for a in abs_args):
            folded = fold_pure_op(op, instr.imm,
                                  [a.value for a in abs_args])
            if folded is not None:
                ty = instr.result_type or I64
                state.env[instr.result] = intern_const(folded, ty)
                return

        args = tuple(self._mat(a) for a in abs_args)
        if instr.result is not None:
            ty = instr.result_type
            vid = self.out.new_value(ty)
            state.env[instr.result] = Dyn(vid, ty)
        else:
            vid = None
        block.instrs.append(Instr(op, vid, args, instr.imm,
                                  instr.result_type))

    # --- intrinsics ----------------------------------------------------------
    def _require_const_int(self, value: AbsVal, what: str) -> int:
        if not isinstance(value, Const):
            raise SpecializeError(
                f"{self.request.name()}: {what} must be a specialization-"
                f"time constant")
        return int(value.value)

    def _transcribe_intrinsic(self, block: Block, state: FlowState,
                              ctx, instr: Instr):
        """Transcribe one weval intrinsic; returns the context after it."""
        name = instr.imm[len("weval."):]
        abs_args = [state.env[a] for a in instr.args]
        counts = self._counts

        if name == "push_context":
            if isinstance(abs_args[0], Const):
                return ctx_mod.push(ctx, abs_args[0].value)
            # A run-time context value collapses into the shared
            # "generic copy" context: the worst case the paper
            # describes (S3.1) where specialization degrades to the
            # original interpreter body — but stays sound and keeps
            # the context set finite.
            return ctx_mod.push(ctx, ctx_mod.DYNAMIC)
        if name == "update_context":
            if isinstance(abs_args[0], Const):
                return ctx_mod.update(ctx, abs_args[0].value)
            return ctx_mod.update(ctx, ctx_mod.DYNAMIC)
        if name == "pop_context":
            return ctx_mod.pop(ctx)
        if name == "assert_const":
            if not isinstance(abs_args[0], Const):
                raise SpecializeError(
                    f"{self.request.name()}: weval.assert_const failed: "
                    f"value is not a specialization-time constant")
            state.env[instr.result] = abs_args[0]
            return ctx

        # --- state intrinsics (S4) ----------------------------------------
        if name == "read_reg":
            idx = self._require_const_int(abs_args[0], "register index")
            state.env[instr.result] = state.regs.get(idx, ZERO)
        elif name == "write_reg":
            idx = self._require_const_int(abs_args[0], "register index")
            state.regs[idx] = abs_args[1]
        elif name == "read_local":
            idx = self._require_const_int(abs_args[0], "local index")
            slot = state.locals.get(idx)
            if slot is not None:
                state.env[instr.result] = slot.value
                counts["local_loads_elided"] += 1
            else:
                loaded = self._load_slot(block, abs_args[1])
                state.locals[idx] = LocalSlot(abs_args[1], loaded, False)
                state.env[instr.result] = loaded
                counts["local_loads_real"] += 1
        elif name == "write_local":
            idx = self._require_const_int(abs_args[0], "local index")
            state.locals[idx] = LocalSlot(abs_args[1], abs_args[2], True)
            counts["local_stores_elided"] += 1
        elif name == "flush":
            self._flush(block, state)
        elif name == "push":
            state.stack.append(StackSlot(abs_args[0], abs_args[1], True))
            counts["stack_stores_elided"] += 1
        elif name == "pop":
            if state.stack:
                state.env[instr.result] = state.stack.pop().value
                counts["stack_loads_elided"] += 1
            else:
                state.env[instr.result] = self._load_slot(block,
                                                          abs_args[0])
                counts["stack_loads_real"] += 1
        elif name == "read_stack":
            depth = self._require_const_int(abs_args[0], "stack depth")
            if depth < len(state.stack):
                state.env[instr.result] = state.stack[-1 - depth].value
                counts["stack_loads_elided"] += 1
            else:
                state.env[instr.result] = self._load_slot(block,
                                                          abs_args[1])
                counts["stack_loads_real"] += 1
        elif name == "write_stack":
            depth = self._require_const_int(abs_args[0], "stack depth")
            if depth < len(state.stack):
                old = state.stack[-1 - depth]
                state.stack[-1 - depth] = StackSlot(old.addr, abs_args[2],
                                                    True)
                counts["stack_stores_elided"] += 1
            else:
                self._store_slot(block, abs_args[1], abs_args[2])
                counts["stack_stores_real"] += 1
        else:
            raise SpecializeError(f"unhandled intrinsic weval.{name}")
        return ctx

    def _load_slot(self, block: Block, addr: AbsVal) -> Dyn:
        """A state slot's real read: one ``load64`` of its address."""
        addr_vid = self._mat(addr)
        vid = self.out.new_value(I64)
        block.instrs.append(Instr("load64", vid, (addr_vid,), 0, I64))
        return Dyn(vid, I64)

    def _store_slot(self, block: Block, addr: AbsVal,
                    value: AbsVal) -> None:
        """A state slot's real write-back: one ``store64`` of ``value``
        to its address."""
        block.instrs.append(Instr("store64", None,
                                  (self._mat(addr), self._mat(value)),
                                  0, None))

    def _flush(self, block: Block, state: FlowState) -> None:
        """Write back all dirty locals and stack slots (S4.2)."""
        for idx in sorted(state.locals):
            slot = state.locals[idx]
            if slot.dirty:
                self._store_slot(block, slot.addr, slot.value)
                state.locals[idx] = LocalSlot(slot.addr, slot.value, False)
                self._counts["local_stores_real"] += 1
        for pos, slot in enumerate(state.stack):
            if slot.dirty:
                self._store_slot(block, slot.addr, slot.value)
                state.stack[pos] = StackSlot(slot.addr, slot.value, False)
                self._counts["stack_stores_real"] += 1

    # --- terminators ---------------------------------------------------------
    def _add_edge(self, info: _KeyInfo, position: int, ctx, gtarget: int,
                  overrides: Dict[int, AbsVal]) -> BlockCall:
        if ctx not in self._seen_contexts:
            if len(self._seen_contexts) >= MAX_CONTEXTS:
                ctx = ctx_mod.push(ctx_mod.ROOT, ctx_mod.DYNAMIC)
            self._seen_contexts.add(ctx)
        succ_key: Key = (ctx, gtarget)
        succ = self._get_or_create(succ_key)
        call = BlockCall(succ.spec_block.id, ())
        succ.in_edges[(info.key, position)] = overrides
        info.edges_out.append(_Edge(position, succ_key, overrides, call))
        self._enqueue(succ_key)
        return call

    def _branch_overrides(self, state: FlowState,
                          gcall: BlockCall) -> Dict[int, AbsVal]:
        """Map generic branch arguments onto the target block's params."""
        params = self.block_params[gcall.block]
        return {param: state.env[arg]
                for param, arg in zip(params, gcall.args)}

    def _transcribe_terminator(self, info: _KeyInfo, block: Block,
                               state: FlowState, ctx,
                               gblock: Block) -> None:
        term = gblock.terminator
        if isinstance(term, Jump):
            call = self._add_edge(info, 0, ctx, term.target.block,
                                  self._branch_overrides(state, term.target))
            block.terminator = Jump(call)
            return
        if isinstance(term, (BrIf, BrTable)):
            selector = state.env[term.selector]
            if isinstance(selector, Const):
                taken = term.taken(selector.value)
                call = self._add_edge(info, 0, ctx, taken.block,
                                      self._branch_overrides(state, taken))
                block.terminator = Jump(call)
                self._counts["branches_folded"] += 1
                return
            calls = [self._add_edge(info, pos, ctx, gcall.block,
                                    self._branch_overrides(state, gcall))
                     for pos, gcall in enumerate(term.targets())]
            vid = self._mat(selector)
            block.terminator = (BrIf(vid, *calls) if isinstance(term, BrIf)
                                else BrTable(vid, calls[:-1], calls[-1]))
            return
        if isinstance(term, Ret):
            args = tuple(self._mat(state.env[a]) for a in term.args)
            block.terminator = Ret(args)
            return
        if isinstance(term, Trap):
            block.terminator = Trap(term.message)
            return
        raise SpecializeError(f"block{gblock.id} has no terminator")

    # ------------------------------------------------------------------
    # Phase 2: fill in branch arguments and write-back fixups.
    # ------------------------------------------------------------------
    def _fill_edges(self) -> None:
        for info in self.infos.values():
            if not info.built or not info.edges_out:
                continue
            block = info.spec_block
            out = info.out_state
            self._counts = info.counts
            flushed: Set[Tuple[str, int]] = set()
            for edge in info.edges_out:
                succ = self.infos[edge.succ_key]
                if succ.entry_state is None:
                    continue
                self._emit_edge_fixups(block, out, succ.entry_state,
                                       flushed)
                args = []
                for slot in succ.param_slots:
                    value = binding_of(out, edge.overrides, slot)
                    if value is None:
                        raise SpecializeError(
                            f"{self.request.name()}: no value for slot "
                            f"{slot} on edge to {edge.succ_key} "
                            f"(internal error)")
                    args.append(self._mat(value))
                edge.call.args = tuple(args)

    def _emit_edge_fixups(self, block: Block, out: FlowState,
                          succ_entry: FlowState,
                          flushed: Set[Tuple[str, int]]) -> None:
        """Flush dirty cached state that the successor does not keep.

        Writing back early is always sound: the store writes the current
        (correct) value to the slot's canonical address.
        """
        for idx, slot in out.locals.items():
            if slot.dirty and idx not in succ_entry.locals \
                    and ("lcl", idx) not in flushed:
                self._store_slot(block, slot.addr, slot.value)
                flushed.add(("lcl", idx))
                self._counts["local_stores_real"] += 1
        keep = len(succ_entry.stack)
        for pos in range(keep, len(out.stack)):
            slot = out.stack[pos]
            if slot.dirty and ("stk", pos) not in flushed:
                self._store_slot(block, slot.addr, slot.value)
                flushed.add(("stk", pos))
                self._counts["stack_stores_real"] += 1


def specialize(module: Module, request: SpecializationRequest,
               options: Optional[SpecializeOptions] = None,
               memory: Optional[bytes] = None) -> Function:
    """Run the weval transform and return the specialized function.

    ``memory`` is the heap snapshot backing constant-memory reads
    (defaults to the module's initial memory image).  The returned
    function is *not* added to the module; see
    :class:`~repro.core.snapshot.SnapshotCompiler` for the integrated
    workflow.
    """
    options = options or SpecializeOptions()
    plan = getattr(request, "inline_plan", ())
    if plan:
        # Speculative inlining: specialize the plan-stripped request
        # first (the deterministic base residual the site ids were
        # enumerated against), splice the plan's callees behind
        # polymorphic guards, then re-run the mid-end — the win is that
        # optimization now crosses the former call boundary.
        from repro.opt.inline import InlineError, apply_inline_plan
        base_request = dataclasses.replace(request, inline_plan=())
        func = specialize(module, base_request, options, memory)
        spec_stats = func._weval_stats  # noqa: SLF001
        try:
            apply_inline_plan(func, module, plan, stats=spec_stats.opt)
        except InlineError as exc:
            raise SpecializeError(str(exc)) from exc
        func.name = request.name()
    else:
        spec = _Specializer(module, request, options, memory)
        func = spec.run()
        spec_stats = spec.stats
    from repro.opt.pipeline import optimize_function
    optimize_function(func, options.opt_config, module, spec_stats.opt)
    if plan:
        canonicalize_function(func)
    func._weval_stats = spec_stats  # noqa: SLF001 - attached for reporting
    return func
