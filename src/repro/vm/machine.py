"""The IR virtual machine.

Execution model: values are Python ints (unsigned 64-bit bit patterns)
for ``i64`` and Python floats for ``f64``.  Each function activation is a
dict from SSA value id to runtime value; control transfers bind branch
arguments to target block parameters.  Guest-level calls map to Python
recursion.

Intrinsic polyfills: ``weval.*`` context intrinsics are registered here
as no-op host functions so that *unspecialized* interpreter bodies run
unchanged (the paper's S3.1: intrinsics are not load-bearing for
correctness).  State intrinsics (registers/locals/stack) are only present
in the specialized variant of an interpreter and therefore have no
polyfill; calling one from the VM is an error (matching the paper's
"two versions of the interpreter body" approach, S4.3).

What an op *means* is not written here: pure ops run the function
compiled from their row in :mod:`repro.ir.semantics` (the same row the
constant folder calls and the emitter prints), and a sized load or
store, the guest's or the host's (``load_u64``/``store_u64``), runs its
row's checked accessor over this heap (the function compiled code
calls for every address its fast path rejects).  This loop owns only
what is the VM's: the environment, counters, calls, guards and control
flow.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, List, Optional

from repro.ir.function import Function, Signature
from repro.ir.instructions import (
    BrIf,
    BrTable,
    Jump,
    MASK64,
    Ret,
    Trap,
)
from repro.ir.module import Module
from repro.ir.semantics import (
    HELPERS,
    LOADS,
    PURE_FNS,
    STORES,
    VMTrap,
    heap_views,
)
from repro.ir.verifier import verify_enabled_by_env


# Guest calls map to Python recursion (a handful of Python frames per
# guest frame, ``_max_call_depth`` guest frames deep), so the guest's
# limit must be hit before the host's: raised once, here, and never by
# a VM.
if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)

# Each sized access is its row's checked accessor, ``load(M, a)`` or
# ``store(M, a, v)``; host word access is the 64-bit rows'.
_LOAD_FNS = {op: HELPERS[row.checked] for op, row in LOADS.items()}
_STORE_FNS = {op: HELPERS[row.checked] for op, row in STORES.items()}
_load_word, _store_word = HELPERS["_load64"], HELPERS["_store64"]


class OutOfFuel(Exception):
    """The configured fuel limit was exhausted."""


class GuardFailed(Exception):
    """An entry ``guard`` instruction saw an unexpected value.

    Raised by specialized code only; the VM catches it at the call
    boundary of the guarded function, rolls the execution counters back
    to the call entry (the verifier guarantees nothing observable
    happened before an entry guard), and deoptimizes: the call re-runs
    under the function's registered generic fallback.  (A site guard's
    miss never raises: it notifies and falls through.)

    ``function`` names the specialized function whose guard failed.
    The call-boundary handler matches it against its own callee so a
    failure propagating out of a *nested* guarded call (one with no
    registered fallback of its own) is re-raised instead of mistaken
    for the outer function's guard — by the time a nested call runs,
    the outer function's entry guards have long passed and its body may
    have observable effects, so rolling the outer call back would be
    unsound.
    """

    def __init__(self, function: str, message: Optional[str] = None):
        super().__init__(message if message is not None else function)
        self.function = function


@dataclasses.dataclass
class ExecStats:
    """Deterministic execution counters.

    ``fuel`` is the contract: every tier charges it, bit-identical to
    the pure interpreter in every configuration.  ``loads``, ``stores``,
    ``calls`` and ``indirect_calls`` count instructions the IR VM
    executed — compiled code keeps only fuel — which is what S6.2's
    traffic rows measure.  ``backedges`` feeds tier-0 profiling.
    """

    fuel: int = 0           # instructions + terminators executed
    loads: int = 0
    stores: int = 0
    calls: int = 0
    indirect_calls: int = 0
    backedges: int = 0      # backward intra-function jumps (tier profiling)

    def snapshot(self) -> "ExecStats":
        return dataclasses.replace(self)

    def restore(self, saved: "ExecStats") -> None:
        """Roll every counter back to ``saved`` (deopt unwinding)."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(saved, field.name))

    def delta(self, since: "ExecStats") -> "ExecStats":
        return ExecStats(**{
            field.name: getattr(self, field.name) - getattr(since, field.name)
            for field in dataclasses.fields(self)})


class VM:
    """An instantiated module: memory + globals + table + execution."""

    def __init__(self, module: Module, fuel_limit: Optional[int] = None):
        self.module = module
        self.memory = module.instantiate_memory()
        if verify_enabled_by_env():
            assert bytes(self.memory) == bytes(module.memory_init), \
                "sparse instantiation diverged from the frozen image"
        # Compiled code's views of the heap, its masks and its scratch
        # word (``VQ``, ``_K8``, ``XQ``, ...), bound once as attributes
        # an emitted preamble reads by name.  The heap is never resized
        # or replaced, so they stay valid for the VM's life.
        vars(self).update(heap_views(self.memory))
        self.globals: Dict[str, int] = dict(module.globals)
        self.stats = ExecStats()
        self.fuel_limit = fuel_limit
        # Tier-2 backend: function name -> the emitter's fixed-arity
        # callable (``fn(vm, *args)`` carrying ``_nparams``) with the
        # same observable semantics as interpreting the IR body.
        # Consulted on every call, so compiled and interpreted functions
        # mix freely.  Filled by :meth:`install_compiled`.
        self.compiled: Dict[str, object] = {}
        # Call-boundary fast path (PR 10): the module's ``imports`` dict
        # and ``table`` list are append-only and never rebound (see
        # repro.ir.module), and ``self.compiled`` is created just above
        # and only ever ``.update()``d, so the per-call probes can bind
        # the containers (and their bound lookup methods) once here
        # instead of re-resolving ``self.module.imports`` etc. per call.
        self._imports_get = module.imports.get
        self._table = module.table
        self._compiled_get = self.compiled.get
        # Dynamic-tiering hooks (repro.pipeline.tiering).  ``tier_hook``
        # fires before a call to any function named in ``tier_generics``
        # and may return a replacement function name (a just-promoted
        # specialization); ``deopt_fallbacks`` maps a guarded specialized
        # function to the generic function a failed guard falls back to,
        # and ``deopt_hook`` is notified of each deopt.  All default to
        # inert so untiered execution pays one ``is not None`` test per
        # call at most.
        self.tier_hook = None
        self.tier_generics: frozenset = frozenset()
        self.deopt_fallbacks: Dict[str, str] = {}
        self.deopt_hook = None
        # Per-call-site profiling and site-guard notification
        # (speculative inlining).  ``site_profile_hook(name, site,
        # index)`` observes the callee table index of each call_indirect
        # executed in a function named in ``site_profile_functions``;
        # ``site_miss_hook(name, site)`` is notified when a site guard
        # misses (execution continues on the out-of-line call).
        self.site_profile_hook = None
        self.site_profile_functions: frozenset = frozenset()
        self.site_miss_hook = None
        # name -> (function object, {id(instr): site id}) — call sites
        # enumerated once per profiled residual, identity-validated like
        # the backedge cache below.
        self._site_id_cache: Dict[str, tuple] = {}
        # Backward-jump profiling (tier 0 loop counters); off by default
        # so the interpreter hot loop is untouched outside tiered mode.
        self.count_backedges = False
        # Per-function retreating-edge sets for backedge profiling, keyed
        # by name and validated against the function object so a name
        # rebound to a new body is never served stale loop structure.
        self._backedge_cache: Dict[str, tuple] = {}
        self._call_depth = 0
        self._max_call_depth = 1000
        # Per-site direct call linking (PR 10).  Imported lazily: the
        # pipeline package imports this module at its own top level, so
        # a module-level import here would be circular.
        from repro.pipeline.links import CallLinkTable
        self.links = CallLinkTable(self)
        # Emitted preambles bind their slot list via this dict (one
        # ``.get`` per invocation); it is the link table's own mapping,
        # shared by reference.
        self._link_slots = self.links._functions

    # ------------------------------------------------------------------
    # Memory access.
    # ------------------------------------------------------------------
    def load_u64(self, addr: int) -> int:
        """The guest word at ``addr``, read as the guest's 64-bit load
        reads it (and trapping as it traps)."""
        return _load_word(self.memory, addr)

    def store_u64(self, addr: int, value: int) -> None:
        """Write ``value``'s i64 bit pattern at ``addr`` as the guest's
        64-bit store writes it."""
        _store_word(self.memory, addr, value & MASK64)

    # ------------------------------------------------------------------
    # Calls.
    # ------------------------------------------------------------------
    def install_compiled(self, compiled: Dict[str, object]) -> None:
        """Register tier-2 backend callables (name -> ``fn(vm, *args)``)."""
        links = self.links
        for name in compiled:
            if name in links._functions:
                # The name is being rebound to a (potentially different)
                # body: its recorded call-site descriptors no longer
                # describe the new entry point.
                links.discard(name)
        self.compiled.update(compiled)
        # Installing is a dispatch-changing event: any site may now link
        # (or must unlink) differently.  This covers every controller
        # install path — promote, per-site demote, heat adoption.
        links.invalidate()

    def call(self, name: str, args: List[object] = ()) -> object:
        """Call a function (host import, compiled, or IR) by name."""
        host = self._imports_get(name)
        if host is not None:
            return host.fn(self, *args)
        if self.tier_hook is not None and name in self.tier_generics:
            # Profile the call; a freshly promoted specialization is
            # installed *at this boundary* and takes over immediately
            # (guest-level dispatch slots only observe it from the next
            # call on, which would make the promoting call itself run
            # generic and diverge from the pure-AOT execution).
            redirect = self.tier_hook(name, args)
            if redirect is not None:
                name = redirect
        if self.deopt_fallbacks and name in self.deopt_fallbacks:
            return self._call_guarded(name, args)
        return self._dispatch(name, args)

    def _dispatch(self, name: str, args) -> object:
        """Run a compiled or IR function by name (post-hook)."""
        fn = self._compiled_get(name)
        if fn is not None:
            # One calling convention: every compiled callable is the
            # emitter's fixed-arity entry point, whose prologue owns the
            # depth bookkeeping, so the only boundary work left here is
            # the arity trap (same message _eval raises for the
            # interpreted body).
            nparams = fn._nparams
            if len(args) != nparams:
                raise VMTrap(f"{name}: expected {nparams} args, "
                             f"got {len(args)}")
            return fn(self, *args)
        func = self.module.functions.get(name)
        if func is None:
            raise VMTrap(f"call to unknown function {name}")
        return self._run_function(func, list(args))

    def _call_guarded(self, name: str, args) -> object:
        """Call a speculatively specialized function with deopt support.

        A :class:`GuardFailed` from the callee's entry guards rolls the
        execution counters back to the call boundary and re-runs the
        registered generic fallback with the same arguments, so the call
        is observably identical to one that was never specialized.  The
        verifier's placement rule (entry guards come before any
        observable effect) makes this sound.
        """
        saved = self.stats.snapshot()
        try:
            return self._dispatch(name, args)
        except GuardFailed as exc:
            if exc.function != name:
                # A nested guarded call failed and had no fallback of
                # its own: not this boundary's deopt.  Handling it here
                # would re-run *this* function's generic body after its
                # specialized body already executed side effects up to
                # the nested call — double execution, not a rollback.
                raise
            self.stats.restore(saved)
            if self.deopt_hook is not None:
                self.deopt_hook(name)
            fallback = self.deopt_fallbacks[name]
            func = self.module.functions.get(fallback)
            if func is None:
                raise VMTrap(f"deopt of {name}: unknown fallback "
                             f"{fallback}")
            return self._run_function(func, list(args))

    def call_table(self, index: int, args: List[object]) -> object:
        table = self._table
        if index <= 0 or index >= len(table):
            raise VMTrap(f"indirect call to bad table index {index}")
        name = table[index]
        if name is None:
            raise VMTrap(f"indirect call to null table entry {index}")
        return self.call(name, args)

    # ------------------------------------------------------------------
    # The core evaluation loop.
    # ------------------------------------------------------------------
    def _run_function(self, func: Function, args: List[object]) -> object:
        self._call_depth += 1
        if self._call_depth > self._max_call_depth:
            self._call_depth -= 1
            raise VMTrap(f"call stack exhausted in {func.name}")
        try:
            return self._eval(func, args)
        finally:
            self._call_depth -= 1

    def _loop_backedges(self, func: Function):
        """Retreating-edge set for ``func``, cached for the VM's lifetime.

        Keyed by function name with an identity check on the cached
        function object: module function tables only ever *add* names,
        but if a name were rebound the stale analysis must not survive.
        """
        cached = self._backedge_cache.get(func.name)
        if cached is not None and cached[0] is func:
            return cached[1]
        from repro.ir.cfg import retreating_edges
        edges = retreating_edges(func)
        self._backedge_cache[func.name] = (func, edges)
        return edges

    def notify_site_miss(self, name: str, site: int) -> None:
        """A site guard missed in ``name``; execution continues on its
        out-of-line call.  Called by both the IR interpretation of site
        guards and compiled tier-2 code."""
        if self.site_miss_hook is not None:
            self.site_miss_hook(name, site)

    def _call_sites(self, func: Function) -> Dict[int, int]:
        """``id(instr) -> site id`` for ``func``'s call_indirect sites,
        numbered in block-id order (the canonical residual order the
        inliner uses), cached with the same identity discipline as the
        backedge cache."""
        cached = self._site_id_cache.get(func.name)
        if cached is not None and cached[0] is func:
            return cached[1]
        from repro.opt.inline import enumerate_call_sites
        sites = {id(instr): site
                 for site, _bid, _idx, instr in enumerate_call_sites(func)}
        self._site_id_cache[func.name] = (func, sites)
        return sites

    def _eval(self, func: Function, args: List[object]) -> object:
        entry = func.entry_block()
        if len(args) != len(entry.params):
            raise VMTrap(f"{func.name}: expected {len(entry.params)} args, "
                         f"got {len(args)}")
        env: Dict[int, object] = {}
        for (param, _), value in zip(entry.params, args):
            env[param] = value

        stats = self.stats
        fuel_limit = self.fuel_limit
        blocks = func.blocks
        block = entry
        pure_fn = PURE_FNS.get
        memory = self.memory
        load_fn = _LOAD_FNS.get
        store_fn = _STORE_FNS.get
        count_backedges = self.count_backedges
        backedges = self._loop_backedges(func) if count_backedges else None

        while True:
            for instr in block.instrs:
                stats.fuel += 1
                op = instr.op
                if op == "iconst" or op == "fconst":
                    env[instr.result] = instr.imm
                # --- pure ops: the row compiled from repro.ir.semantics ---
                elif (fn := pure_fn(op)) is not None:
                    ops = instr.args
                    if len(ops) == 2:
                        env[instr.result] = fn(env[ops[0]], env[ops[1]])
                    elif len(ops) == 1:
                        env[instr.result] = fn(env[ops[0]])
                    else:
                        env[instr.result] = fn(env[ops[0]], env[ops[1]],
                                               env[ops[2]])
                # --- memory: the row's access over this heap -----------
                elif (load := load_fn(op)) is not None:
                    stats.loads += 1
                    env[instr.result] = load(memory,
                                             env[instr.args[0]] + instr.imm)
                elif (store := store_fn(op)) is not None:
                    stats.stores += 1
                    store(memory, env[instr.args[0]] + instr.imm,
                          env[instr.args[1]])
                # --- calls -----------------------------------------------
                elif op == "call":
                    stats.calls += 1
                    result = self.call(instr.imm,
                                       [env[a] for a in instr.args])
                    if instr.result is not None:
                        env[instr.result] = result
                elif op == "call_indirect":
                    stats.indirect_calls += 1
                    index = env[instr.args[0]]
                    if self.site_profile_hook is not None and \
                            func.name in self.site_profile_functions:
                        self.site_profile_hook(
                            func.name,
                            self._call_sites(func)[id(instr)], index)
                    result = self.call_table(
                        index, [env[a] for a in instr.args[1:]])
                    if instr.result is not None:
                        env[instr.result] = result
                # --- globals ---------------------------------------------
                elif op == "global_get":
                    env[instr.result] = self.globals[instr.imm]
                elif op == "global_set":
                    self.globals[instr.imm] = env[instr.args[0]]
                # --- speculation -----------------------------------------
                elif op == "guard":
                    imm = instr.imm
                    if isinstance(imm, tuple):
                        # Site guard: record a miss and fall through to
                        # the out-of-line call behind it.
                        if env[instr.args[0]] not in imm[1]:
                            self.notify_site_miss(func.name, imm[0])
                    elif env[instr.args[0]] != imm:
                        raise GuardFailed(
                            func.name,
                            f"{func.name}: guard expected {imm}, "
                            f"got {env[instr.args[0]]}")
                else:
                    raise VMTrap(f"unimplemented opcode {op}")

            if fuel_limit is not None and stats.fuel > fuel_limit:
                raise OutOfFuel(f"fuel limit {fuel_limit} exceeded")

            # --- terminator ---------------------------------------------
            stats.fuel += 1
            term = block.terminator
            if isinstance(term, Jump):
                call = term.target
            elif isinstance(term, BrIf):
                call = term.if_true if env[term.cond] != 0 else term.if_false
            elif isinstance(term, BrTable):
                index = env[term.index]
                if 0 <= index < len(term.cases):
                    call = term.cases[index]
                else:
                    call = term.default
            elif isinstance(term, Ret):
                if term.args:
                    return env[term.args[0]]
                return None
            elif isinstance(term, Trap):
                raise VMTrap(term.message)
            else:
                raise VMTrap(f"block{block.id} not terminated")

            if count_backedges and (block.id, call.block) in backedges:
                # Tier-0 loop profiling: retreating edges in reverse
                # post-order are the real loop backedges, independent of
                # how block ids happen to be numbered.
                stats.backedges += 1
            target = blocks[call.block]
            if call.args:
                values = [env[a] for a in call.args]
                for (param, _), value in zip(target.params, values):
                    env[param] = value
            block = target
