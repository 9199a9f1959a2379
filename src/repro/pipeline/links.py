"""Per-site direct call linking for tier-2 compiled code (PR 10).

A guest call through ``vm.call``/``vm.call_table`` pays name
resolution, the imports, tier-hook and deopt-fallback probes, argument
boxing and depth bookkeeping — every time, even once every participant
is steady tier 2.  The :class:`CallLinkTable` replaces that boundary
with per-site *link slots*, the classic patchable call site:

* every emitted function binds its slot list once per invocation
  (``_lk = vm._link_slots.get(name)``) and calls through
  ``_lk[i](vm, v3, v5)`` — positional, unboxed;
* a **direct** slot starts as a slow bridge closure that delegates to
  ``vm.call`` and, after the call returns, probes whether the callee is
  a *steady* tier-2 entry point (compiled, fixed arity matching the
  site, no registered deopt fallback, not redirected by the tier hook,
  not an import).  If so it patches the slot to the callee's raw
  callable: from then on the site costs ~one Python call;
* an **indirect** (``call_indirect``) slot is a 3-element monomorphic
  inline cache ``[expected_table_index, raw_target, miss_bridge]``
  consulted inline by the emitted code; the miss bridge delegates to
  ``vm.call_table`` and installs the first steadily-linkable target.

What links in practice: indirect slots link to residuals (the guests
dispatch through function-pointer slots), and direct slots link to
*helpers* — the loop-free module functions compiled code calls by name,
which the engine compiles with the residual that needs them
(:meth:`~repro.pipeline.engine.CompilationEngine.compile_helpers`).  In
the tree that is MiniLua's ``lua_call``: each residual's
``("c", "lua_call", 2)`` slot patches to it on its first call, and
``lua_call``'s own ``call_indirect`` site is an inline cache, so a
guest call runs compiled → compiled → compiled.  A direct site naming a
host import or a hooked or looping generic interpreter stays on its
bridge.

Soundness rests on a single rule: *every* event that can change what a
guest name dispatches to calls :meth:`invalidate`, which resets every
slot back to its bridge in place (slot lists keep their identity, so
in-flight frames holding ``_lk`` observe the reset immediately).  There
are two callers: ``VM.install_compiled``, and the one transition choke
point of :mod:`repro.pipeline.tiering` (its docstring's table lists the
events).  Because bridges go through the full ``vm.call`` /
``vm.call_table`` path and a raw link is taken only when that path would
have been a straight ``self.compiled[name](self, *args)``, fuel, traps,
prints, and deopt behavior are bit-identical with linking on or off.

The table is deliberately VM-local (one per :class:`~repro.vm.machine.VM`)
and import-light: ``vm/machine.py`` instantiates it lazily so the
``pipeline`` package and the VM keep their one-way import order.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

__all__ = ["CallLinkTable"]

# Descriptor shapes embedded by the emitter (cache-stable: derived only
# from the residual function body):
#   ("c", callee_name, argc)  direct call site
#   ("t", argc)               indirect (call_indirect) site
Descriptor = Tuple


class CallLinkTable:
    """Owns every link slot of one VM; see the module docstring."""

    def __init__(self, vm) -> None:
        self.vm = vm
        #: When False (``REPRO_LINK_CALLS=0``), bridges never patch:
        #: every site stays on the slow ``vm.call``/``vm.call_table``
        #: path forever.  Flipping this at runtime requires an
        #: ``invalidate()`` to drop links that were already made.
        self.enabled = os.environ.get("REPRO_LINK_CALLS", "1") != "0"
        #: Bumped on every invalidation; observability + test hook.
        self.epoch = 0
        #: Direct slots patched to a raw callable (lifetime total).
        self.links_made = 0
        #: Indirect inline caches filled (lifetime total).
        self.ic_links_made = 0
        # emit-name -> slot list (identity-stable: emitted code binds
        # the list once per invocation and indexes into it).
        self._functions: Dict[str, List] = {}
        # emit-name -> descriptor tuple the slots were built from.
        self._descs: Dict[str, Sequence[Descriptor]] = {}

    # -- binding -------------------------------------------------------

    def bind(self, name: str, descs: Sequence[Descriptor]) -> List:
        """Build (or return) the slot list for emitted function *name*.

        Called from the emitted preamble the first time a compiled
        function runs on this VM; idempotent thereafter.
        """
        slots = self._functions.get(name)
        if slots is not None:
            return slots
        slots = []
        for i, desc in enumerate(descs):
            if desc[0] == "c":
                slots.append(self._make_bridge(name, i, desc[1], desc[2]))
            else:
                slots.append(self._make_ic(name, i, desc[1]))
        self._descs[name] = tuple(descs)
        self._functions[name] = slots
        return slots

    def discard(self, name: str) -> None:
        """Forget *name*'s slots (the compiled entry was replaced by a
        different function reusing the name; its sites may differ)."""
        slots = self._functions.pop(name, None)
        descs = self._descs.pop(name, None)
        if slots is not None:
            # Reset in place too: in-flight frames may still hold the list.
            self._reset(name, slots, descs)

    # -- invalidation --------------------------------------------------

    def _reset(self, name: str, slots: List, descs) -> None:
        """Put every slot of *name* back on its bridge, in place."""
        for i, desc in enumerate(descs):
            if desc[0] == "c":
                slots[i] = self._make_bridge(name, i, desc[1], desc[2])
            else:
                ic = slots[i]
                ic[0] = -1
                ic[1] = None

    def invalidate(self) -> None:
        """Reset every slot to its bridge, in place, on a
        dispatch-changing event.  O(total sites): sites are few and
        events rare, so a full reset beats per-callee tracking."""
        self.epoch += 1
        for name, slots in self._functions.items():
            self._reset(name, slots, self._descs[name])

    def linked_count(self) -> int:
        """Slots currently patched past their bridge (tests/benches)."""
        count = 0
        for name, slots in self._functions.items():
            for desc, slot in zip(self._descs[name], slots):
                if desc[0] == "c":
                    if not hasattr(slot, "_link_bridge"):
                        count += 1
                elif slot[0] != -1:
                    count += 1
        return count

    # -- linkability ---------------------------------------------------

    def _probe(self, callee: str, argc: int):
        """Return the raw callable for *callee* iff a raw positional
        call is observably identical to ``vm.call(callee, args)``."""
        if not self.enabled:
            return None
        vm = self.vm
        # Imports stay bridged: host calls use the host-function
        # convention.
        if callee in vm.module.imports:
            return None
        # Never link around an active tier hook: the controller may
        # redirect this generic name (or demote back to it).
        if vm.tier_hook is not None and callee in vm.tier_generics:
            return None
        # Speculative entries carry a guard fallback; those calls must
        # keep flowing through _call_guarded.
        if vm.deopt_fallbacks and callee in vm.deopt_fallbacks:
            return None
        fn = vm.compiled.get(callee)
        if fn is None or fn._nparams != argc:
            return None
        return fn

    # -- slot construction ---------------------------------------------

    def _make_bridge(self, owner: str, index: int, callee: str, argc: int):
        """Slow-path closure for a direct site: full ``vm.call``, then
        self-patch if the callee has become steadily linkable."""
        table = self

        def bridge(vm, *args):
            result = vm.call(callee, args)
            fn = table._probe(callee, argc)
            if fn is not None:
                slots = table._functions.get(owner)
                # Patch only if this exact bridge still occupies the
                # slot — an invalidation during the call installed a
                # fresh bridge whose next run will re-probe.
                if slots is not None and slots[index] is bridge:
                    slots[index] = fn
                    table.links_made += 1
            return result

        bridge._link_bridge = (callee, argc)
        return bridge

    def _make_ic(self, owner: str, index: int, argc: int):
        """Monomorphic inline cache for a ``call_indirect`` site:
        ``[expected_index, raw_target, miss_bridge]``.  The emitted code
        checks element 0 inline; misses call element 2."""
        table = self
        slot: List = [-1, None, None]

        def miss(vm, table_index, args):
            result = vm.call_table(table_index, args)
            if slot[0] == -1 and 0 < table_index < len(vm.module.table):
                callee = vm.module.table[table_index]
                if callee is not None:
                    fn = table._probe(callee, argc)
                    if fn is not None:
                        current = table._functions.get(owner)
                        if current is not None and current[index] is slot:
                            slot[1] = fn
                            slot[0] = table_index
                            table.ic_links_made += 1
            return result

        slot[2] = miss
        return slot
