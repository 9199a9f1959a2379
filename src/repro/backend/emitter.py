"""Compile residual IR to native Python functions (the tier-2 backend).

The IR VM in :mod:`repro.vm.machine` walks one instruction dataclass at
a time; every op pays dict lookups and an opcode dispatch.  After
specialization that interpretive overhead is the dominant cost left, so
this module translates a verified IR function into Python *source*,
``compile()``/``exec()``s it, and returns a callable with the VM's exact
observable semantics:

* a pure op is emitted as its :mod:`repro.ir.semantics` row — the
  expression the VM and the constant folder execute — with ``v<n>``
  operand names, so values are the same unsigned-64-bit bit patterns
  by construction;
* an ``iconst`` or finite ``fconst`` is never assigned: each use prints
  its literal (parenthesized when negative, so ``-0.0`` keeps its sign
  under ``fneg`` and ``fsub``), which CPython's constant folder sees.
  A non-finite float has no literal and is assigned once through
  ``_bits_itof``;
* a sized load or store is one mask test and one subscript of the
  typed heap view its ``LOADS``/``STORES`` row names —
  ``if a & _K8: v9 = _load64(M, a)`` / ``else: v9 = VQ[a >> 3]``, and
  ``else: VI[a >> 2] = v & 0xffffffff`` for a store; one byte is
  ``M[a]``.  The views and masks are the VM's
  (:func:`repro.ir.semantics.heap_views`, bound in the preamble); a mask
  admits exactly the aligned in-bounds addresses of its width, and every
  other address calls the row's checked accessor out of line, which
  raises the VM's trap text before anything is touched or runs the
  row's ``struct`` codec.  No width is spelled here;
* a NaN-box cast (``bits_ftoi``/``bits_itof``) writes its operand into
  one view of the VM's 8-byte scratch word and reads the other:
  ``Xd[0] = v3`` / ``v4 = XQ[0]``;
* a compare (a ``_int(<cmp>)`` row) whose result has exactly one use,
  the ``br_if`` of its own block, is never assigned: the terminator
  prints ``if <cmp>:``.  Every other use — stored, returned, passed,
  a block argument, an operand, a branch elsewhere — keeps ``_int``,
  so a guest value is always an ``int`` and nothing but branch
  truthiness ever sees a Python ``bool``;
* traps raise the same :class:`~repro.vm.machine.VMTrap` kinds with the
  same messages, out-of-fuel raises :class:`OutOfFuel`; the per-block
  fuel-limit guard raises out of line, through
  :mod:`repro.backend.runtime`'s ``_oof``, to keep emitted source small;
* fuel is charged once per *block*: one ``_fu += k`` counts its
  instructions and the terminator of the branch that entered it (the VM
  charges a terminator after its fuel-limit check, so the charge is
  still due when the successor starts).  The entry block, which a call
  enters too, counts only its instructions, so an edge back into it
  and a ``return`` or ``trap`` terminator each charge their own unit.
  That yields byte-identical totals to the VM on every execution that
  does not trap mid-block, and the fuel-limit check fires at the same
  block boundary the VM checks at.  Fuel is the only counter compiled
  code keeps: ``vm.stats``' loads, stores, calls and indirect calls
  count what the IR VM executed;
* guest calls go through per-site link slots
  (:class:`repro.pipeline.links.CallLinkTable`): every slot starts as a
  bridge that re-enters ``vm.call`` / ``vm.call_table`` — so compiled
  and interpreted functions mix freely — and is patched to the callee's
  raw fixed-arity entry point once the callee is steady tier-2 code,
  making the settled call boundary a single positional Python call.
  Entry points are fixed-arity (``def _compiled(vm, v3, v5)``) with the
  depth check in their own prologue; the VM's ``_dispatch`` checks
  arity against their ``_nparams`` attribute and does no boxing or
  depth bookkeeping of its own.

One emitter, :class:`StructuredEmitter`, with one block, terminator
and edge lowering — a relooper-style reconstruction: strongly-connected
components of the CFG become native ``while True:`` loops (backedges
are ``continue``), join points become single-shot ``while True:``
*scopes* whose ``break`` lands exactly where the join's code starts,
and multi-level exits unwind through a ``_st`` state variable checked
once per scope boundary.  Fuel is batched in a Python local (``_fu``)
committed to ``vm.stats.fuel`` in a function-level ``finally`` and
flushed before every guest call, so fuel at every observable point
(call boundaries, the per-block fuel-limit check, the final total) is
bit-identical to the VM's per-instruction accounting.

Totality comes from one more unit kind, the *dispatch region*: its
entries and joins, in reverse postorder, sit flat under a binary
decision tree over a block index ``_b`` (depth ``log2(n)``) inside a
``while True:``, and an edge to one of them assigns ``_b`` and falls
out of its tree arm to re-dispatch.  Every other member has exactly one
incoming edge and is inlined there, as a level of structured emission
inlines a unit, until a chain of them nests ``_MAX_INLINE_DEPTH``
levels below its leaf — the label-variable "multiple" shape of
Zakai's Relooper (Emscripten, 2011), where only joins and loop
headers are dispatch targets.  An irreducible SCC (a multi-entry
cycle) becomes such a region inside the structured skeleton; a
function that would nest past either of CPython's limits — about 100
indent levels in the parser (budgeted as ``_MAX_DEPTH``), 20 statically
nested blocks in the compiler (``_MAX_STATIC_BLOCKS``: the body's
``try`` and one per open ``while True:``) — is re-emitted as a single
region around all of its blocks (``mode_used == "dispatch"``) by the
same code, so every source the emitter produces is one ``compile()``
accepts.

Malformed input (no entry block, a dangling or unterminated block, an
opcode with no row) raises :class:`BackendError`; the engine contains
it, as any failure of ``compile()`` or ``exec``, as a failed request.
"""

from __future__ import annotations

import collections
import re
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.backend.runtime import BACKEND_GLOBALS
from repro.ir.function import Block, Function
from repro.ir.instructions import (
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
from repro.ir.semantics import CASTS, LOADS, PURE_EXPRS, STORES, _bits_ftoi


class BackendError(Exception):
    """The emitter was given a function it cannot lower (malformed IR or
    an unknown emit mode)."""


class _StructureTooDeep(BackendError):
    """Structured emission would nest past the indentation budget or
    CPython's static-block limit; :meth:`StructuredEmitter.emit_source`
    re-emits the function as one dispatch region (internal — never
    escapes it)."""


# Pure ops are printed from their repro.ir.semantics row: op -> (the
# row as a ``str.format`` template, ``{0}``/``{1}``/``{2}`` standing for
# its operands a/b/c; whether the row calls ``_int``, which emitted
# functions bind as a local).
_PURE_TEMPLATES = {
    op: (re.sub(r"\b[abc]\b",
                lambda m: "{%d}" % "abc".index(m.group()), expr),
         "_int(" in expr)
    for op, expr in PURE_EXPRS.items()
}

# The rows that call ``_int`` are the compares, ``_int(<cmp>)``: op ->
# the bare ``<cmp>`` a fused ``br_if`` tests in place.
_BARE_COMPARES = {
    op: template[len("_int("):-1]
    for op, (template, uses_int) in _PURE_TEMPLATES.items() if uses_int
}
assert all(_PURE_TEMPLATES[op][0] == f"_int({bare})"
           for op, bare in _BARE_COMPARES.items())

_INDENT = "    "


def _float_literal(value: float) -> Tuple[str, bool]:
    """A source literal for a float; non-finite values go through the
    bit-pattern helper (``repr`` of nan/inf is not a literal).  Returns
    (expression, needs_bits_helper)."""
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return f"_bits_itof({_bits_ftoi(value):#x})", True
    return repr(value), False


def _const_literal(instr: Instr) -> Optional[str]:
    """The literal an ``iconst`` or finite ``fconst`` prints at each use,
    parenthesized when negative so it binds as one operand; ``None`` for
    a non-finite float, which is assigned once through the helper."""
    if instr.op == "iconst":
        literal = str(int(instr.imm))
    else:
        literal, needs_helper = _float_literal(instr.imm)
        if needs_helper:
            return None
    return f"({literal})" if literal.startswith("-") else literal


# ---------------------------------------------------------------------------
# Region units, scopes and SCCs: the structure the emitter recovers.
# ---------------------------------------------------------------------------

class _BlockUnit:
    """One straight-line block at its region level."""

    kind = "block"

    def __init__(self, bid: int):
        self.bid = bid
        self.label = bid
        self.labels = (bid,)
        self.members = frozenset((bid,))


class _LoopUnit:
    """A single-entry SCC: a native loop.  ``sub`` is the region tree of
    the loop body with the backedges to ``header`` cut."""

    kind = "loop"

    def __init__(self, header: int, sub: List[object],
                 members: frozenset):
        self.header = header
        self.sub = sub
        self.label = header
        self.labels = (header,)
        self.members = members


class _DispatchUnit:
    """A region emitted flat as a local dispatch tree over ``_b``: a
    multi-entry (irreducible) SCC, or the whole function when it nests
    past the budget.  ``fall_entry`` is set when this region contains
    its level's entry block (control falls in without a branch having
    initialized ``_b``).  ``leaves`` are the members the tree dispatches
    to, in reverse postorder; every other member is inlined at its one
    incoming edge (:meth:`StructuredEmitter._dispatch_unit`)."""

    kind = "dispatch"

    def __init__(self, entries: List[int], members: frozenset,
                 leaves: List[int], fall_entry: Optional[int]):
        self.entries = entries
        self.leaves = leaves
        self.label = entries[0]
        self.labels = tuple(entries)
        self.members = members
        self.fall_entry = fall_entry
        self.idx = {bid: i for i, bid in enumerate(leaves)}
        # Arriving branches assign ``_b`` through the unit's merge scope.
        self.entry_idx = {lab: self.idx[lab] for lab in entries}


class _Scope:
    """One open ``while True:`` on the emission stack.

    * ``merge`` — a single-shot scope whose ``break`` lands at the start
      of the scoped unit's code (``labels`` are that unit's entry
      labels; ``token`` is the canonical ``_st`` arrival value).
    * ``loop`` — a real loop; branching to ``token`` (the header) is
      ``continue``.
    * ``dispatch`` — an irreducible region's dispatch loop; ``labels``
      are all region members and ``idx`` maps them to ``_b`` values.
    """

    __slots__ = ("kind", "labels", "token", "idx", "st_mark")

    def __init__(self, kind: str, labels, token: int,
                 idx: Optional[Dict[int, int]] = None):
        self.kind = kind
        self.labels = frozenset(labels)
        self.token = token
        self.idx = idx
        self.st_mark = 0


def _tarjan_sccs(succs: Dict[int, List[int]], entry: int
                 ) -> List[List[int]]:
    """Iterative Tarjan over ``succs`` from ``entry``; SCCs are returned
    in reverse topological order of the condensation."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    onstack: Set[int] = set()
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 0
    work: List[List[int]] = [[entry, 0]]
    while work:
        frame = work[-1]
        v, child = frame
        if child == 0:
            index[v] = low[v] = counter
            counter += 1
            stack.append(v)
            onstack.add(v)
        targets = succs[v]
        descended = False
        while child < len(targets):
            w = targets[child]
            child += 1
            if w not in index:
                frame[1] = child
                work.append([w, 0])
                descended = True
                break
            if w in onstack:
                low[v] = min(low[v], index[w])
        if descended:
            continue
        work.pop()
        if work:
            parent = work[-1][0]
            low[parent] = min(low[parent], low[v])
        if low[v] == index[v]:
            scc = []
            while True:
                w = stack.pop()
                onstack.discard(w)
                scc.append(w)
                if w == v:
                    break
            sccs.append(scc)
    return sccs


# The two limits structured emission must stay inside; past either,
# the function is re-emitted as one dispatch region.
#
# Indentation budget: CPython's *parser* rejects nesting around 100
# indent levels; leave generous headroom for the skeleton and the extra
# level the indirect-call inline cache nests inside a block.
_MAX_DEPTH = 86
# How many levels a chain of blocks inlined inside a dispatch region
# may nest below the tree leaf it hangs from; the next block of the
# chain becomes a leaf of its own.  Independent of ``_MAX_DEPTH``, which
# the region whole-function fallback emits does not see: below its
# ``def``, ``try`` and ``while``, a tree over a million leaves is 20
# levels deep, so its deepest line stays under 70.
_MAX_INLINE_DEPTH = 40
# CPython's *compiler* refuses more than 20 statically nested blocks
# (``CO_MAXBLOCKS``).  Emitted code opens them two ways: the body's one
# ``try:``, and one ``while True:`` per open scope.
_MAX_STATIC_BLOCKS = 20


class StructuredEmitter:
    """Translates one verified IR function into Python source by
    relooper-style structured emission (see the module docstring)."""

    def __init__(self, func: Function, module: Optional[Module] = None):
        self.func = func
        self.module = module
        # The shape of the last :meth:`emit_source`: "structured", or
        # "dispatch" when the whole function is one dispatch region
        # (the too-deep re-emission); and how much of it is left to
        # dispatch regions — the irreducible SCCs, or that one region
        # and every block.
        self.mode_used = "structured"
        self.dispatch_regions = 0
        self.dispatch_region_blocks = 0

    # ------------------------------------------------------------------
    # Block ordering.
    # ------------------------------------------------------------------
    def _block_order(self) -> List[int]:
        """Reachable blocks in reverse postorder, entry first."""
        func = self.func
        if func.entry is None:
            raise BackendError(f"{func.name}: no entry block")
        # Iterative DFS to avoid Python recursion limits on huge CFGs.
        stack: List[Tuple[int, int]] = [(func.entry, 0)]
        post: List[int] = []
        seen = {func.entry}
        targets_of: Dict[int, List[int]] = {}
        while stack:
            bid, child = stack[-1]
            if bid not in targets_of:
                block = func.blocks.get(bid)
                if block is None:
                    raise BackendError(
                        f"{self.func.name}: dangling block ref block{bid}")
                if block.terminator is None:
                    raise BackendError(
                        f"{self.func.name}: block{bid} not terminated")
                targets_of[bid] = [c.block for c in
                                   block.terminator.targets()]
            targets = targets_of[bid]
            if child < len(targets):
                stack[-1] = (bid, child + 1)
                succ = targets[child]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, 0))
            else:
                post.append(bid)
                stack.pop()
        order = list(reversed(post))
        assert order[0] == func.entry
        return order

    # ------------------------------------------------------------------
    # Region tree construction.
    # ------------------------------------------------------------------
    def _region_units(self, nodes: frozenset, entry: int,
                      cut: frozenset) -> List[object]:
        """Decompose ``nodes`` (minus ``cut`` edges) into a topologically
        ordered list of units: blocks, single-entry loops (recursively
        decomposed with their backedges cut), and irreducible
        multi-entry regions left flat for per-region dispatch."""
        succs = {
            b: [t for t in dict.fromkeys(self._succ_raw[b])
                if t in nodes and (b, t) not in cut]
            for b in nodes
        }
        preds: Dict[int, List[int]] = {b: [] for b in nodes}
        for b, targets in succs.items():
            for t in targets:
                preds[t].append(b)
        units: List[object] = []
        for scc in reversed(_tarjan_sccs(succs, entry)):
            members = frozenset(scc)
            if len(scc) == 1 and scc[0] not in succs[scc[0]]:
                units.append(_BlockUnit(scc[0]))
                continue
            entries = sorted(
                (m for m in members
                 if m == entry or any(p not in members for p in preds[m])),
                key=self._rpo_pos.get)
            if len(entries) == 1:
                header = entries[0]
                sub_cut = cut | {
                    (b, header) for b in members
                    if header in self._succ_raw[b]}
                sub = self._region_units(members, header, sub_cut)
                units.append(_LoopUnit(header, sub, members))
            else:
                units.append(self._dispatch_unit(
                    entries, members, entry if entry in members else None))
        return units

    def _dispatch_unit(self, entries: List[int], members: frozenset,
                       fall_entry: Optional[int]) -> _DispatchUnit:
        """A dispatch region over ``members`` whose tree dispatches only
        to its entries and joins: a non-entry member with exactly one
        incoming edge (every edge into it comes from a member) is
        inlined at that edge until a chain nests ``_MAX_INLINE_DEPTH``
        levels below its leaf."""
        order = sorted(members, key=self._rpo_pos.get)
        preds: Dict[int, List[int]] = {b: [] for b in order}
        for b in order:
            for t in self._succ_raw[b]:
                if t in members:
                    preds[t].append(b)
        # Levels below its leaf each member's code starts at; a branch
        # arm nests one deeper than its block, a jump does not.  A single
        # predecessor comes first in reverse postorder.
        depth: Dict[int, int] = {}
        leaves: List[int] = []
        for b in order:
            depth[b] = 0
            if b in entries or len(preds[b]) != 1:
                leaves.append(b)
                continue
            pred = preds[b][0]
            below = depth[pred] + (
                not isinstance(self.func.blocks[pred].terminator, Jump))
            if below > _MAX_INLINE_DEPTH:
                leaves.append(b)
            else:
                depth[b] = below
        return _DispatchUnit(entries, members, leaves, fall_entry)

    # ------------------------------------------------------------------
    # Line assembly helpers.
    # ------------------------------------------------------------------
    def _line(self, text: str) -> None:
        if self._depth > self._budget:
            raise _StructureTooDeep(
                f"{self.func.name}: structured nesting exceeds "
                f"{self._budget} levels")
        self._lines.append(_INDENT * self._depth + text)

    def _push_scope(self, scope: _Scope) -> None:
        # Static blocks once it is open: the body's ``try``, the open
        # scopes and this one.
        if len(self._scopes) + 2 > _MAX_STATIC_BLOCKS:
            raise _StructureTooDeep(
                f"{self.func.name}: structured nesting exceeds "
                f"{_MAX_STATIC_BLOCKS} static blocks")
        scope.st_mark = self._st_sets
        self._scopes.append(scope)
        self._line("while True:")
        self._depth += 1

    def _close_scope(self) -> None:
        """End the innermost scope's ``while`` and emit its landing:
        arrival routing for the ``_st`` unwinding protocol.  Elided
        entirely when no ``_st`` was set inside the scope (only plain
        one-level breaks arrived, which simply fall through)."""
        scope = self._scopes.pop()
        self._depth -= 1
        if self._st_sets == scope.st_mark:
            return
        outer = self._scopes[-1] if self._scopes else None
        route: List[Tuple[str, str]] = []
        if outer is not None and outer.kind == "loop":
            route.append((f"_st == {outer.token}", "_st = -1; continue"))
        elif outer is not None and outer.kind == "dispatch":
            # Clearing the token falls out of the region tree arm to the
            # dispatch loop's end, re-dispatching on the already-set _b.
            route.append((f"_st == {outer.token}", "_st = -1"))
        if scope.kind == "merge":
            self._line("if _st != -1:")
            self._depth += 1
            self._line(f"if _st == {scope.token}: _st = -1")
            for cond, action in route:
                self._line(f"elif {cond}: {action}")
            if outer is not None:
                self._line("else: break")
            self._depth -= 1
        else:
            if route:
                cond, action = route[0]
                self._line(f"if {cond}: {action}")
                if outer is not None:
                    self._line("else: break")
            elif outer is not None:
                self._line("break")

    # ------------------------------------------------------------------
    # Transfers (branch edges) under the scope stack.
    # ------------------------------------------------------------------
    def _transfer(self, call: BlockCall) -> None:
        label = call.block
        if label == self.func.entry:
            # Every other block's charge counts the branch that entered
            # it; the entry block's cannot, a call enters it too.
            self._line("_fu += 1")
        target = self.func.blocks[label]
        pairs = [(param, arg)
                 for (param, _), arg in zip(target.params, call.args)
                 if param != arg]
        if pairs:
            lhs = ", ".join(f"v{param}" for param, _ in pairs)
            rhs = ", ".join(self._val(arg) for _, arg in pairs)
            self._line(f"{lhs} = {rhs}")
        inline = self._inline_map.pop(label, None)
        if inline is not None:
            self._emit_unit(inline)
            return
        for levels_up, scope in enumerate(reversed(self._scopes)):
            if label not in scope.labels:
                continue
            if scope.idx is not None:
                self._line(f"_b = {scope.idx[label]}")
            if levels_up == 0:
                if scope.kind == "loop":
                    self._line("continue")
                elif scope.kind == "merge":
                    self._line("break")
                else:
                    # Region-internal edge: fall out of the tree arm to
                    # the dispatch loop's end, which re-dispatches.
                    self._line(f"# -> block{label}")
            else:
                self._st_sets += 1
                self._line(f"_st = {scope.token}")
                self._line("break")
            return
        raise BackendError(
            f"{self.func.name}: unresolved branch to block{label}")

    # ------------------------------------------------------------------
    # Unit sequences (one region level).
    # ------------------------------------------------------------------
    def _emit_seq(self, units: List[object]) -> None:
        label_of: Dict[int, object] = {}
        owner: Dict[int, object] = {}
        for u in units:
            for lab in u.labels:
                label_of[lab] = u
            for b in u.members:
                owner[b] = u
        # Branch edges into each unit's labels, with multiplicity, from
        # anywhere in this level's subgraph outside the target unit
        # (intra-unit edges are loop backedges / region-internal).
        in_edges: Dict[int, List[int]] = {lab: [] for lab in label_of}
        for u in units:
            for b in u.members:
                for t in self._succ_raw[b]:
                    tu = label_of.get(t)
                    if tu is None or tu is u:
                        continue
                    in_edges[t].append(b)
        # A non-entry unit with exactly one incoming branch is emitted
        # inline at that branch site (classic relooper "simple" shape);
        # the rest stay in sequence behind merge scopes.
        scoped = [units[0]]
        for u in units[1:]:
            if (u.kind != "dispatch"
                    and len(in_edges[u.label]) == 1):
                self._inline_map[u.label] = u
            else:
                scoped.append(u)
        unit_pos = {id(u): i for i, u in enumerate(scoped)}

        def host_pos(block: int) -> int:
            u = owner[block]
            while id(u) not in unit_pos:
                # Inlined units live at their single branch site's host.
                u = owner[in_edges[u.label][0]]
            return unit_pos[id(u)]

        # Merge-scope intervals: scope i spans [start_i, i), opening
        # before the earliest unit that branches to unit i and closing
        # right where unit i's code begins.  Partial overlaps are fixed
        # by extending starts outward until the intervals nest.
        starts: Dict[int, int] = {}
        for i in range(1, len(scoped)):
            u = scoped[i]
            starts[i] = min(host_pos(src)
                            for lab in u.labels for src in in_edges[lab])
        for j in sorted(starts):
            changed = True
            while changed:
                changed = False
                for k in range(1, j):
                    if starts[k] < starts[j] < k:
                        starts[j] = starts[k]
                        changed = True
        opens: Dict[int, List[int]] = {}
        for i, start in starts.items():
            opens.setdefault(start, []).append(i)
        for group in opens.values():
            group.sort(reverse=True)  # longest-lived scope outermost
        for i, u in enumerate(scoped):
            if i >= 1:
                self._close_scope()
            for j in opens.get(i, ()):
                target = scoped[j]
                self._push_scope(_Scope(
                    "merge", target.labels, target.label,
                    getattr(target, "entry_idx", None)))
            self._emit_unit(u, is_level_entry=(i == 0))

    def _emit_unit(self, u: object, is_level_entry: bool = False) -> None:
        if u.kind == "block":
            self._line(f"# block{u.bid}")
            self._emit_structured_block(self.func.blocks[u.bid])
        elif u.kind == "loop":
            self._push_scope(_Scope("loop", u.labels, u.header))
            self._emit_seq(u.sub)
            self._close_scope()
        else:
            self._emit_dispatch_region(u, is_level_entry)

    # ------------------------------------------------------------------
    # Dispatch regions: irreducible SCCs, or the whole function past
    # the nesting budget.
    # ------------------------------------------------------------------
    def _emit_dispatch_region(self, u: _DispatchUnit,
                              is_level_entry: bool) -> None:
        self.dispatch_regions += 1
        self.dispatch_region_blocks += len(u.members)
        idx = u.idx
        for bid in u.members.difference(u.leaves):
            self._inline_map[bid] = _BlockUnit(bid)
        # Entering branches assign _b before unwinding here; only a
        # fall-in at the region's own level entry needs initialization.
        if is_level_entry:
            if u.fall_entry is None:
                raise BackendError(
                    f"{self.func.name}: irreducible region entered by "
                    f"fall-through without an entry block")
            self._line(f"_b = {idx[u.fall_entry]}")
        token = -(2 + self.dispatch_regions)
        self._push_scope(_Scope("dispatch", u.leaves, token, idx))
        self._emit_region_tree(u.leaves, idx)
        self._close_scope()

    def _emit_region_tree(self, members: List[int],
                          idx: Dict[int, int]) -> None:
        if len(members) == 1:
            bid = members[0]
            self._line(f"# block{bid} [_b={idx[bid]}]")
            self._emit_structured_block(self.func.blocks[bid])
            return
        mid = len(members) // 2
        self._line(f"if _b < {idx[members[mid]]}:")
        self._depth += 1
        self._emit_region_tree(members[:mid], idx)
        self._depth -= 1
        self._line("else:")
        self._depth += 1
        self._emit_region_tree(members[mid:], idx)
        self._depth -= 1

    # ------------------------------------------------------------------
    # Blocks and terminators under batched fuel.
    # ------------------------------------------------------------------
    def _emit_structured_block(self, block: Block) -> None:
        body: List[str] = []
        segment: List[str] = []
        # One charge per block: its instructions and, but in the entry
        # block, the terminator of the branch that entered it — the VM
        # charges that after its own check, so it is still due here.
        pending = 0 if block.id == self.func.entry else 1
        term = block.terminator
        # Compare->branch fusion: a compare whose one use is this
        # block's own br_if is never assigned; the terminator tests the
        # bare compare.  It is pure and its operands are SSA names (or
        # literals), so evaluating it there is unobservable, and its
        # fuel is still charged in this block's ``_fu += n``.
        fused = None
        if isinstance(term, BrIf) and self._use_counts[term.cond] == 1:
            fused = next(
                (instr for instr in block.instrs
                 if instr.result == term.cond
                 and instr.op in _BARE_COMPARES), None)
        for instr in block.instrs:
            if instr is not fused:
                segment.extend(self._emit_instr(instr))
            pending += 1
            if instr.op in ("call", "call_indirect"):
                # Commit fuel before a guest call so the callee (and any
                # fuel-limit check it runs) sees the VM's exact total;
                # ``pending`` is the segment's, through the call itself.
                body.append(f"S.fuel += _fu + {pending}; _fu = 0")
                body.extend(segment)
                segment = []
                pending = 0
        if pending:
            body.append(f"_fu += {pending}")
        body.extend(segment)
        for raw in body:
            self._line(raw)
        # Same boundary the VM checks at: after the block's instructions,
        # before charging the terminator, which the successor's charge
        # counts (a return or trap, having none, charges its own).
        self._line("if _L is not None and S.fuel + _fu > _L: _oof(_L)")
        if isinstance(term, Jump):
            self._transfer(term.target)
        elif isinstance(term, BrIf):
            cond = self._val(term.cond) if fused is None else \
                _BARE_COMPARES[fused.op].format(
                    *[self._val(a) for a in fused.args])
            self._line(f"if {cond}:")
            self._depth += 1
            self._transfer(term.if_true)
            self._depth -= 1
            self._line("else:")
            self._depth += 1
            self._transfer(term.if_false)
            self._depth -= 1
        elif isinstance(term, BrTable):
            if not term.cases:
                self._transfer(term.default)
                return
            self._line(f"_i = {self._val(term.index)}")
            for pos, call in enumerate(term.cases):
                self._line(f"{'if' if pos == 0 else 'elif'} _i == {pos}:")
                self._depth += 1
                self._transfer(call)
                self._depth -= 1
            self._line("else:")
            self._depth += 1
            self._transfer(term.default)
            self._depth -= 1
        elif isinstance(term, Ret):
            self._line("_fu += 1")
            if term.args:
                self._line(f"return {self._val(term.args[0])}")
            else:
                self._line("return None")
        elif isinstance(term, Trap):
            self._line("_fu += 1")
            self._line(f"raise VMTrap({term.message!r})")
        else:
            raise BackendError(
                f"{self.func.name}: block{block.id} has no terminator")

    # ------------------------------------------------------------------
    # Instructions.
    # ------------------------------------------------------------------
    def _val(self, value: int) -> str:
        """How an operand is spelled: a constant's literal, else its
        name."""
        return self._literals.get(value) or f"v{value}"

    def _addr(self, instr: Instr, pre: List[str]) -> str:
        """The effective-address expression for a memory op (a temp when
        a static offset must be added)."""
        base = self._val(instr.args[0])
        if instr.imm:
            pre.append(f"_a = {base} + {instr.imm}")
            return "_a"
        return base

    def _emit_instr(self, instr: Instr) -> List[str]:
        op = instr.op
        args = instr.args
        r = f"v{instr.result}" if instr.result is not None else None

        if op in ("iconst", "fconst"):
            # Each use prints a constant's literal; only a non-finite
            # float, which has none, is assigned.
            if instr.result in self._literals:
                return []
            return [f"{r} = {_float_literal(instr.imm)[0]}"]
        cast = CASTS.get(op)
        if cast is not None:
            # The operand's bits written as one type and read back as the
            # other, through the VM's scratch word.
            into, out = cast
            self.heap.update(cast)
            return [f"{into}[0] = {self._val(args[0])}", f"{r} = {out}[0]"]
        pure = _PURE_TEMPLATES.get(op)
        if pure is not None:
            template, uses_int = pure
            if uses_int:
                self.used.add("_int")
            return [f"{r} = " + template.format(
                *[self._val(a) for a in args])]

        mem = LOADS.get(op) or STORES.get(op)
        if mem is not None:
            # An address the row's mask admits is aligned and in bounds:
            # one subscript of the row's view.  Every other address goes
            # out of line to the row's checked accessor, which traps with
            # the VM's text or falls back to the codec.
            self.used.add("M")
            if mem.view != "M":
                self.heap.add(mem.view)
            self.heap.add(mem.mask)
            pre: List[str] = []
            a = self._addr(instr, pre)
            shift = mem.size.bit_length() - 1
            slot = f"{mem.view}[{a} >> {shift}]" if shift else \
                f"{mem.view}[{a}]"
            test = f"if {a} & {mem.mask}: "
            if op in LOADS:
                if mem.signed:
                    slot = f"_sext({slot}, {mem.size * 8})"
                return pre + [f"{test}{r} = {mem.checked}(M, {a})",
                              f"else: {r} = {slot}"]
            # An i64 or f64 is already 8 bytes wide; narrower stores
            # truncate.
            value = self._val(args[1])
            masked = (value if mem.size == 8 else
                      f"{value} & {(1 << (mem.size * 8)) - 1:#x}")
            return pre + [f"{test}{mem.checked}(M, {a}, {value})",
                          f"else: {slot} = {masked}"]

        if op == "call":
            self.used.add("_lk")
            site = len(self.link_sites)
            self.link_sites.append(("c", instr.imm, len(args)))
            call_args = "".join(f", {self._val(a)}" for a in args)
            # The slot is read at the call, not bound in the preamble, so
            # an invalidation between two executions of this site is
            # always observed.  Bridged: full vm.call.  Linked: one raw
            # positional call into the callee's fixed-arity entry.
            expr = f"_lk[{site}](vm{call_args})"
            if r is not None:
                return [f"{r} = {expr}"]
            return [expr]
        if op == "call_indirect":
            self.used.add("_lk")
            site = len(self.link_sites)
            rest = args[1:]
            self.link_sites.append(("t", len(rest)))
            index = self._val(args[0])
            raw_args = "".join(f", {self._val(a)}" for a in rest)
            boxed = ", ".join(self._val(a) for a in rest)
            trailing = "," if len(rest) == 1 else ""
            assign = f"{r} = " if r is not None else ""
            # Monomorphic inline cache [expected_index, raw_target,
            # miss_bridge]: a hit calls the raw target; misses (and the
            # unlinked state, expected_index == -1) take the bridge
            # through the full vm.call_table path.
            return [
                f"_s = _lk[{site}]",
                f"if {index} == _s[0]:",
                f"{_INDENT}{assign}_s[1](vm{raw_args})",
                "else:",
                f"{_INDENT}{assign}_s[2](vm, {index}, "
                f"({boxed}{trailing}))",
            ]

        if op == "global_get":
            self.used.add("G")
            return [f"{r} = G[{instr.imm!r}]"]
        if op == "global_set":
            self.used.add("G")
            return [f"G[{instr.imm!r}] = {self._val(args[0])}"]
        if op == "guard":
            if isinstance(instr.imm, tuple):
                # Site guard: a miss records the site and control
                # continues into the out-of-line call, so no state is
                # abandoned.
                site, values = instr.imm
                return [f"if {self._val(args[0])} not in {values!r}: "
                        f"vm.notify_site_miss({self.func.name!r}, "
                        f"{site})"]
            # Entry guard: the VM catches GuardFailed at this function's
            # call boundary and rolls the counters back, so the segment
            # fuel already charged for this block is unwound with the
            # deopt.
            return [f"if {self._val(args[0])} != {int(instr.imm)}: "
                    f"raise GuardFailed({self.func.name!r})"]

        raise BackendError(
            f"{self.func.name}: unsupported opcode {op!r}")

    # ------------------------------------------------------------------
    # Source assembly.
    # ------------------------------------------------------------------
    def _prologue(self) -> List[str]:
        """Per-call depth bookkeeping, hoisted from ``VM._dispatch`` into
        the callee so raw-linked calls (which bypass the VM entirely)
        still honor the guest depth limit with the same trap."""
        return [
            "vm._call_depth = _d = vm._call_depth + 1",
            f"if _d > vm._max_call_depth: _exhaust(vm, {self.func.name!r})",
        ]

    def _preamble(self) -> List[str]:
        used = self.used
        bindings = []
        if "M" in used:
            bindings.append("M = vm.memory")
        bindings.extend(f"{name} = vm.{name}" for name in sorted(self.heap))
        bindings.append("S = vm.stats")
        if "G" in used:
            bindings.append("G = vm.globals")
        if "_lk" in used:
            # The slot list identity is stable across invalidations
            # (slots are reset in place), so binding it once per
            # invocation is sound even if linking events fire mid-frame.
            name = self.func.name
            bindings.append(f"_lk = vm._link_slots.get({name!r})")
            bindings.append(f"if _lk is None: _lk = vm.links.bind("
                            f"{name!r}, {tuple(self.link_sites)!r})")
        if "_int" in used:
            bindings.append("_int = int")
        bindings.append("_L = vm.fuel_limit")
        return bindings

    def _emit_body(self, units: List[object], budget: float) -> List[str]:
        """The lines of the function body for one region tree; raises
        :class:`_StructureTooDeep` past ``budget`` indent levels."""
        self.used: Set[str] = set()
        # The heap views, masks and scratch views the body reads (each a
        # VM attribute of the same name: repro.ir.semantics.heap_views).
        self.heap: Set[str] = set()
        # Call-site link descriptors, in site order (PR 10): ("c",
        # callee, argc) for direct calls, ("t", argc) for indirect.
        # Derived purely from the function body, so cached sources stay
        # byte-stable.
        self.link_sites: List[tuple] = []
        self._lines: List[str] = []
        self._budget = budget
        # The body always lives inside the depth-bookkeeping try (plus
        # the function def itself): two levels.
        self._depth = 2
        self._scopes: List[_Scope] = []
        self._inline_map: Dict[int, object] = {}
        self._st_sets = 0
        self.dispatch_regions = 0
        self.dispatch_region_blocks = 0
        self._emit_seq(units)
        assert not self._scopes and not self._inline_map
        return self._lines

    def emit_source(self) -> str:
        func = self.func
        rpo = self._block_order()
        self._rpo_pos = {bid: i for i, bid in enumerate(rpo)}
        self._succ_raw = {
            bid: [c.block for c in
                  func.blocks[bid].terminator.targets()]
            for bid in rpo}
        # How often each value is used (what compare->branch fusion
        # asks), and the literal each constant's uses print.
        uses: List[int] = []
        self._literals: Dict[int, str] = {}
        for bid in rpo:
            block = func.blocks[bid]
            uses += terminator_values(block.terminator)
            for instr in block.instrs:
                uses += instr.args
                if instr.op in ("iconst", "fconst"):
                    literal = _const_literal(instr)
                    if literal is not None:
                        self._literals[instr.result] = literal
        self._use_counts = collections.Counter(uses)

        try:
            body = self._emit_body(
                self._region_units(frozenset(rpo), func.entry, frozenset()),
                _MAX_DEPTH)
            self.mode_used = "structured"
        except _StructureTooDeep:
            # Past either limit the whole function is the one region an
            # irreducible SCC would be.  No indent budget applies: the
            # tree is 3 + ceil(log2(blocks)) levels deep plus a block's
            # own nesting, which cannot reach the parser's limit; and
            # its one scope is two static blocks with the ``try``.
            body = self._emit_body(
                [self._dispatch_unit([func.entry], frozenset(rpo),
                                     func.entry)],
                float("inf"))
            self.mode_used = "dispatch"

        lines: List[str] = []
        lines.append(f"# {func.name}{func.sig} — compiled from residual "
                     f"IR by repro.backend.StructuredEmitter")
        entry = func.entry_block()
        nparams = len(entry.params)
        params = "".join(f", v{v}" for v, _ in entry.params)
        lines.append(f"def _compiled(vm{params}):")
        lines.extend(_INDENT + line for line in self._prologue())
        for binding in self._preamble():
            lines.append(_INDENT + binding)
        lines.append(f"{_INDENT}_fu = 0")
        if self._st_sets:
            lines.append(f"{_INDENT}_st = -1")
        lines.append(f"{_INDENT}try:")
        lines.extend(body)
        lines.append(f"{_INDENT}finally:")
        lines.append(f"{_INDENT * 2}S.fuel += _fu")
        lines.append(f"{_INDENT * 2}vm._call_depth -= 1")
        lines.append(f"_compiled._nparams = {nparams}")
        return "\n".join(lines) + "\n"


def compile_python_source(name: str, source: str,
                          code: Optional[object] = None) -> Callable:
    """``compile()``/``exec()`` emitted backend source into a callable.

    What :meth:`repro.pipeline.engine.CompilationEngine._emit` does
    after :func:`emit_function_source`, so warm-loaded sources from the
    artifact store take the exact same path as freshly emitted ones.
    ``code`` may carry the code object already compiled for ``source``
    — by the engine before it stores the source, or unmarshaled from
    the artifact store's ``py/`` entry — in which case the ``compile()``
    step is skipped.  Whatever ``compile()`` or ``exec`` raises
    propagates: the engine contains it as a failed request.
    """
    env = dict(BACKEND_GLOBALS)
    if code is None:
        code = compile(source, f"<pybackend:{name}>", "exec")
    exec(code, env)
    pyfunc = env["_compiled"]
    pyfunc.__name__ = name
    pyfunc.__qualname__ = name
    return pyfunc


def emit_function_source(func: Function,
                         module: Optional[Module] = None,
                         mode: str = "structured"
                         ) -> Tuple[str, str, StructuredEmitter]:
    """Emit Python source for ``func``.

    Returns ``(source, mode_used, emitter)``; ``mode_used`` is
    ``"dispatch"`` when structured emission nested past the indent
    budget or the static-block limit and the whole function was emitted
    as one dispatch region (the choice is deterministic, so cached
    sources stay stable).
    """
    # ``mode`` survives only for its reader,
    # benchmarks/ledger/ledger_workloads.py::_measure_emitted.
    if mode != "structured":
        raise BackendError(f"unknown emit mode {mode!r}")
    emitter = StructuredEmitter(func, module)
    return emitter.emit_source(), emitter.mode_used, emitter
