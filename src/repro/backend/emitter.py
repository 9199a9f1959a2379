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
* a sized load or store is the two lines of its ``LOADS``/``STORES``
  row, formatted with the address, result and value names: one mask
  test and one subscript of a typed heap view — ``if a & _K8: v9 =
  _load64(M, a)`` / ``else: v9 = VQ[a >> 3]``, and ``else: VI[a >> 2]
  = v & 0xffffffff`` for a store; one byte is ``M[a]``.  The views and
  masks are the VM's
  (:func:`repro.ir.semantics.heap_views`, bound in the preamble); a mask
  admits exactly the aligned in-bounds addresses of its width, and every
  other address calls the row's checked accessor out of line, which
  raises the row's trap text before anything is touched or runs the
  row's ``struct`` codec.  No width is spelled here;
* a NaN-box cast (``bits_ftoi``/``bits_itof``) writes its operand into
  one view of the VM's 8-byte scratch word and reads the other:
  ``Xd[0] = v3`` / ``v4 = XQ[0]``;
* a compare (a ``1 if <cmp> else 0`` row) whose result has exactly one
  use, the ``br_if`` of its own block, is never assigned: the terminator
  prints ``if <cmp>:``.  Every other use — stored, returned, passed,
  a block argument, an operand, a branch elsewhere — assigns the whole
  row, so a guest value is always an ``int`` and nothing but branch
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

One emitter, :class:`StructuredEmitter`, in two steps.  Structure
recovery, :func:`recover_structure`, is a pure function from a function
to its :class:`RegionTree`, relooper-style: strongly-connected
components of the CFG become native ``while True:`` loops (backedges are
``continue``), join points become single-shot ``while True:`` *scopes*
whose ``break`` lands exactly where the join's code starts, multi-level
exits unwind through a ``_st`` state variable checked once per scope
boundary, and a unit with exactly one incoming edge is inlined at that
edge.  Each edge gets one lowering, and each node records its indent
level and static-block depth; the printer walks the tree once,
indenting by those numbers.  Fuel is batched in a Python local (``_fu``)
committed to ``vm.stats.fuel`` in a function-level ``finally`` and
flushed before every guest call, so fuel at every observable point
(call boundaries, the per-block fuel-limit check, the final total) is
bit-identical to the VM's per-instruction accounting.

Totality comes from one more unit kind, the *dispatch region*: its
entries and joins, in reverse postorder, sit flat under a binary
decision tree over a block index ``_b`` inside a ``while True:``, and
an edge to one of them assigns ``_b`` and falls out of its tree arm to
re-dispatch.  Every other member is inlined by the same rule, until a
chain nests ``_MAX_INLINE_DEPTH`` levels below its leaf — the
label-variable "multiple" shape of Zakai's Relooper (Emscripten, 2011).
An irreducible SCC (a multi-entry cycle) becomes such a region inside
the structured skeleton.  A structured tree past either of CPython's
limits — about 100 indent levels in the parser (budgeted as
``_MAX_DEPTH``), 20 statically nested blocks in the compiler
(``_MAX_STATIC_BLOCKS``: the body's ``try`` and one per open ``while
True:``) — is replaced, before anything is printed, by one region
around all of its blocks (``mode_used == "dispatch"``), so every source
the emitter produces is one ``compile()`` accepts.

Malformed input (no entry block, a dangling or unterminated block, an
opcode with no row) raises :class:`BackendError`; the engine contains
it, as any failure of ``compile()`` or ``exec``, as a failed request.
"""

from __future__ import annotations

import collections
import re
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.backend.runtime import BACKEND_GLOBALS
from repro.ir.cfg import reverse_postorder
from repro.ir.function import Function
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


# Pure ops are printed from their repro.ir.semantics row: op -> the
# row as a ``str.format`` template, ``{0}``/``{1}``/``{2}`` standing for
# its operands a/b/c.
_PURE_TEMPLATES = {
    op: re.sub(r"\b[abc]\b",
               lambda m: "{%d}" % "abc".index(m.group()), expr)
    for op, expr in PURE_EXPRS.items()
}

# The compares are the rows spelled ``1 if <cmp> else 0``: op -> the
# bare ``<cmp>`` a fused ``br_if`` tests in place.
_BARE_COMPARES = {
    op: template[len("1 if "):-len(" else 0")]
    for op, template in _PURE_TEMPLATES.items()
    if template.startswith("1 if ")
}
assert all(_PURE_TEMPLATES[op] == f"1 if {bare} else 0"
           and " if " not in bare and " else " not in bare
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
# Structure recovery: the units a function decomposes into, and the
# region tree placing them, every edge lowered.
# ---------------------------------------------------------------------------

class _Unit:
    """One unit of a region level, entered at ``labels`` (``label`` is
    the first): a ``"block"``; a ``"loop"``, a single-entry SCC whose
    body ``sub`` is decomposed with its backedges cut; or a
    ``"dispatch"`` region, emitted flat as a dispatch tree over ``_b`` —
    a multi-entry (irreducible) SCC, or the whole function when it nests
    past either limit.  A region's tree dispatches to ``leaves``, in
    reverse postorder, ``idx`` their ``_b`` values; ``sites`` inline
    every other member at its one incoming edge
    (:meth:`_Cfg.inline_sites`)."""

    def __init__(self, kind: str, labels, members: frozenset,
                 sub: List["_Unit"] = (), leaves: List[int] = (),
                 sites: Optional[Dict[Tuple[int, int], "_Unit"]] = None):
        self.kind = kind
        self.label = labels[0]
        self.labels = tuple(labels)
        self.members = members
        self.sub = sub
        self.leaves = leaves
        self.sites = sites
        self.idx = {bid: i for i, bid in enumerate(leaves)}


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
        while child < len(targets):
            w = targets[child]
            child += 1
            if w not in index:
                frame[1] = child
                work.append([w, 0])
                break
            if w in onstack:
                low[v] = min(low[v], index[w])
        else:
            # Every successor done: finish v.
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


# The two limits structured code must stay inside; past either,
# recovery places the whole function in one dispatch region.
#
# Indentation budget: CPython's *parser* rejects nesting around 100
# indent levels; leave generous headroom for the skeleton and the extra
# level the indirect-call inline cache nests inside a block.
_MAX_DEPTH = 86
# How many levels a chain of blocks inlined inside a dispatch region
# may nest below the tree leaf it hangs from; the next block of the
# chain becomes a leaf of its own.  Independent of ``_MAX_DEPTH``, which
# the whole-function region is not checked against: below its ``def``,
# ``try`` and ``while``, a tree over a million leaves is 20 levels
# deep, so its deepest line stays under 70.
_MAX_INLINE_DEPTH = 40
# CPython's *compiler* refuses more than 20 statically nested blocks
# (``CO_MAXBLOCKS``).  Emitted code opens them two ways: the body's one
# ``try:``, and one ``while True:`` per open scope.
_MAX_STATIC_BLOCKS = 20


class _Cfg:
    """A function's reachable CFG and its decomposition into units."""

    def __init__(self, func: Function):
        self.func = func
        if func.entry is None:
            raise BackendError(f"{func.name}: no entry block")
        try:
            self.rpo = reverse_postorder(func)
        except KeyError as missing:
            raise BackendError(
                f"{func.name}: dangling block ref block{missing}") from None
        self.succ: Dict[int, List[int]] = {}
        for bid in self.rpo:
            term = func.blocks[bid].terminator
            if term is None:
                raise BackendError(f"{func.name}: block{bid} not terminated")
            self.succ[bid] = [c.block for c in term.targets()]
        self.rpo_pos = {bid: i for i, bid in enumerate(self.rpo)}

    def units(self, nodes: frozenset, entry: int,
              cut: frozenset) -> List[_Unit]:
        """Decompose ``nodes`` (minus ``cut`` edges) into a topologically
        ordered list of units: blocks, single-entry loops (recursively
        decomposed with their backedges cut), and irreducible
        multi-entry regions left flat for per-region dispatch."""
        succs = {
            b: [t for t in dict.fromkeys(self.succ[b])
                if t in nodes and (b, t) not in cut]
            for b in nodes
        }
        preds: Dict[int, List[int]] = {b: [] for b in nodes}
        for b, targets in succs.items():
            for t in targets:
                preds[t].append(b)
        units: List[_Unit] = []
        for scc in reversed(_tarjan_sccs(succs, entry)):
            members = frozenset(scc)
            if len(scc) == 1 and scc[0] not in succs[scc[0]]:
                units.append(_Unit("block", scc, members))
                continue
            entries = sorted(
                (m for m in members
                 if m == entry or any(p not in members for p in preds[m])),
                key=self.rpo_pos.get)
            if len(entries) == 1:
                header = entries[0]
                sub_cut = cut | {
                    (b, header) for b in members if header in self.succ[b]}
                units.append(_Unit("loop", entries, members, self.units(
                    members, header, sub_cut)))
            else:
                units.append(self.dispatch_unit(entries, members))
        return units

    def dispatch_unit(self, entries: List[int],
                      members: frozenset) -> _Unit:
        """A dispatch region over ``members`` whose tree dispatches only
        to its entries and joins."""
        order = [_Unit("block", (b,), frozenset((b,)))
                 for b in sorted(members, key=self.rpo_pos.get)]
        sites = self.inline_sites(order, entries, _MAX_INLINE_DEPTH)[0]
        inlined = {label for _, label in sites}
        return _Unit("dispatch", entries, members, leaves=[
            u.label for u in order if u.label not in inlined], sites=sites)

    def inline_sites(self, units: List[_Unit], fixed,
                     bound: Optional[int] = None):
        """The one inlining rule: a unit with exactly one incoming edge
        is placed at that edge.  Returns ``(sites, in_edges)``:
        ``(source block, label) -> unit`` for every unit so inlined, and
        each label's incoming edges by source block, with multiplicity.
        A unit labelled in ``fixed`` (its level's entries) or a dispatch
        region is never inlined.  Inside a region (``bound`` set) a
        chain of inlined blocks nests at most ``bound`` levels below its
        leaf; a branch arm nests one deeper than its block, a jump does
        not, and a single predecessor comes first in reverse
        postorder."""
        label_of = {lab: u for u in units for lab in u.labels}
        in_edges: Dict[int, List[int]] = {lab: [] for lab in label_of}
        for u in units:
            for b in u.members:
                for t in self.succ[b]:
                    tu = label_of.get(t)
                    # A loop's or region's edges into itself are internal.
                    if tu is not None and (tu is not u or u.kind == "block"):
                        in_edges[t].append(b)
        sites: Dict[Tuple[int, int], _Unit] = {}
        below = dict.fromkeys(label_of, 0)
        for u in units:
            srcs = in_edges[u.label]
            if u.label in fixed or u.kind == "dispatch" or len(srcs) != 1:
                continue
            if bound is not None:
                depth = below[srcs[0]] + (not isinstance(
                    self.func.blocks[srcs[0]].terminator, Jump))
                if depth > bound:
                    continue
                below[u.label] = depth
            sites[(srcs[0], u.label)] = u
        return sites, in_edges


class _Node:
    """A region-tree node: the indent level of its first line
    (``depth``) and the static blocks open there, its own included
    (``static``)."""

    depth = static = 0


class BlockNode(_Node):
    """A placed block: ``leaf`` is its ``_b`` value when it is a leaf of
    a dispatch tree; ``edges`` its out-edges, in terminator order."""

    leaf: Optional[int] = None

    def __init__(self, bid: int):
        self.bid = bid
        self.edges: List[Edge] = []


class Edge(_Node):
    """A CFG edge and its one lowering, ``exit``: ``"inline"`` (the
    target unit's node is ``child``), ``"continue"``, ``"break"``,
    ``"redispatch"`` (fall out of a dispatch tree arm) or ``"st"`` (a
    multi-level exit to the scope whose token is ``token``).  ``b`` is
    the ``_b`` value assigned first, when the target is a region's."""

    exit, child, b, token = "inline", None, None, 0

    def __init__(self, call: BlockCall):
        self.call = call


class Scope(_Node):
    """A ``while True:`` over ``body``.  ``kind`` is ``"merge"`` (a
    single-shot scope whose ``break`` lands where the unit entered at
    ``labels`` starts), ``"loop"`` (branching to ``token``, the header,
    is ``continue``) or ``"dispatch"`` (a region's tree; ``labels`` are
    its leaves, ``fall_in`` the ``_b`` assigned before it when control
    falls in).  ``idx`` maps labels to their ``_b`` values, if any.
    ``landing`` says an ``_st`` exit was lowered inside, so the scope
    routes arrivals after its ``while``, by ``outer``, the scope around
    it."""

    fall_in: Optional[int] = None
    landing, outer = False, None

    def __init__(self, kind: str, labels, token: int,
                 idx: Optional[Dict[int, int]] = None):
        self.kind = kind
        self.labels = frozenset(labels)
        self.token = token
        self.idx = idx
        self.body: List[_Node] = []


class Split(_Node):
    """A dispatch tree's ``if _b < pivot:`` over two subtrees."""

    def __init__(self, pivot: int, low: _Node, high: _Node):
        self.pivot = pivot
        self.low = low
        self.high = high


class RegionTree:
    """One function's structure: ``body``, the nodes below its ``try:``,
    each reachable block placed once and each edge lowered once.
    ``mode`` is ``"dispatch"`` (one region around every block) or
    ``"structured"``, held to ``limits`` (indent levels, static blocks):
    past either, nothing deeper is built and the tree is only a verdict.
    ``max_depth`` / ``max_static`` are the maxima of its nodes'
    ``depth`` / ``static``; ``st_exits`` counts its ``"st"`` edges."""

    def __init__(self, cfg: _Cfg, units: List[_Unit],
                 limits: Optional[Tuple[int, int]]):
        self.rpo = cfg.rpo
        self.mode = "structured" if limits else "dispatch"
        self.limits = limits
        self.max_depth = self.max_static = self.st_exits = 0
        self.dispatch_regions = self.dispatch_region_blocks = 0
        self._cfg = cfg
        self._scopes: List[Scope] = []
        self._sites: Dict[Tuple[int, int], _Unit] = {}
        # The body lives inside the function's ``def`` and its ``try``.
        self.body = self._seq(units, 2)

    def too_deep(self) -> bool:
        """The verdict: a structured tree past either of its limits."""
        depth, static = self.limits or (self.max_depth, self.max_static)
        return self.max_depth > depth or self.max_static > static

    def _place(self, node: _Node, depth: int) -> _Node:
        node.depth = depth
        node.static = static = 1 + len(self._scopes)
        if depth > self.max_depth:
            self.max_depth = depth
        if static > self.max_static:
            self.max_static = static
        return node

    def _open(self, scope: Scope, depth: int) -> Scope:
        scope.st_mark = self.st_exits
        self._scopes.append(scope)
        return self._place(scope, depth)

    def _close(self) -> None:
        scope = self._scopes.pop()
        scope.landing = self.st_exits != scope.st_mark
        scope.outer = self._scopes[-1] if self._scopes else None

    def _seq(self, units: List[_Unit], depth: int) -> List[_Node]:
        """One region level: the units not inlined stay in sequence
        behind merge scopes."""
        sites, in_edges = self._cfg.inline_sites(units, (units[0].label,))
        self._sites.update(sites)
        inlined = {label: src for src, label in sites}
        owner = {b: u for u in units for b in u.members}
        # Where each unit's code is: its position in the sequence, or
        # that of its one incoming edge.
        scoped = [u for u in units if u.label not in inlined]
        host = {u: i for i, u in enumerate(scoped)}
        for u in units:
            if u.label in inlined:
                host[u] = host[owner[inlined[u.label]]]
        # Merge-scope intervals: scope i spans [start_i, i), opening
        # before the earliest unit that branches to unit i and closing
        # right where unit i's code begins.  Partial overlaps are fixed
        # by extending starts outward until the intervals nest.
        starts = {i: min(host[owner[src]] for lab in u.labels
                         for src in in_edges[lab])
                  for i, u in enumerate(scoped) if i}
        for j in sorted(starts):
            changed = True
            while changed:
                changed = False
                for k in range(1, j):
                    if starts[k] < starts[j] < k:
                        starts[j] = starts[k]
                        changed = True
        # The scopes opening before each unit, longest-lived outermost.
        opens: Dict[int, List[int]] = {}
        for i in sorted(starts, reverse=True):
            opens.setdefault(starts[i], []).append(i)
        bodies: List[List[_Node]] = [[]]
        for i, u in enumerate(scoped):
            if i:
                self._close()
                bodies.pop()
            for j in opens.get(i, ()):
                target = scoped[j]
                scope = self._open(Scope(
                    "merge", target.labels, target.label, target.idx or None),
                    depth + len(bodies) - 1)
                bodies[-1].append(scope)
                bodies.append(scope.body)
            bodies[-1].append(self._unit(u, depth + len(bodies) - 1, i == 0))
        return bodies[0]

    def _unit(self, u: _Unit, depth: int, is_level_entry: bool) -> _Node:
        if u.kind == "block":
            return self._block(u.label, depth)
        if u.kind == "loop":
            scope = self._open(Scope("loop", u.labels, u.label), depth)
            scope.body = self._seq(u.sub, depth + 1)
        else:
            self.dispatch_regions += 1
            self.dispatch_region_blocks += len(u.members)
            self._sites.update(u.sites)
            scope = self._open(Scope("dispatch", u.leaves,
                                     -(2 + self.dispatch_regions), u.idx),
                               depth)
            # Entering branches assign _b before unwinding here; only a
            # fall-in at the level's entry, the region's first entry,
            # needs initialization.
            if is_level_entry:
                scope.fall_in = u.idx[u.label]
            scope.body = [self._tree(u.leaves, u.idx, depth + 1)]
        self._close()
        return scope

    def _tree(self, leaves: List[int], idx: Dict[int, int],
              depth: int) -> _Node:
        """A binary decision tree over ``leaves``, ``log2(n)`` deep."""
        if len(leaves) == 1:
            node = self._block(leaves[0], depth)
            node.leaf = idx[leaves[0]]
            return node
        mid = len(leaves) // 2
        return self._place(Split(
            idx[leaves[mid]], self._tree(leaves[:mid], idx, depth + 1),
            self._tree(leaves[mid:], idx, depth + 1)), depth)

    def _block(self, bid: int, depth: int) -> BlockNode:
        node = self._place(BlockNode(bid), depth)
        if self.too_deep():
            # The tree is rejected whole: build nothing deeper, which
            # also bounds the recursion by the limits.
            return node
        calls = self._cfg.func.blocks[bid].terminator.targets()
        # A branch's arms nest one level below its block; a jump, or a
        # br_table with only a default, does not.
        arm = depth + (len(calls) > 1)
        node.edges = [self._edge(bid, call, arm) for call in calls]
        return node

    def _edge(self, src: int, call: BlockCall, depth: int) -> Edge:
        edge = self._place(Edge(call), depth)
        label = call.block
        unit = self._sites.get((src, label))
        if unit is not None:
            edge.child = self._unit(unit, depth, False)
            return edge
        for levels_up, scope in enumerate(reversed(self._scopes)):
            if label not in scope.labels:
                continue
            edge.b = scope.idx[label] if scope.idx else None
            if levels_up:
                self.st_exits += 1
                edge.exit, edge.token = "st", scope.token
            else:
                edge.exit = {"loop": "continue", "merge": "break",
                             "dispatch": "redispatch"}[scope.kind]
            return edge
        raise BackendError(
            f"{self._cfg.func.name}: unresolved branch to block{label}")


def recover_structure(func: Function) -> RegionTree:
    """``func``'s region tree: structured, unless its deepest node is
    past the indent budget or CPython's static-block limit; then one
    dispatch region around every block, whose tree is 3 +
    ceil(log2(blocks)) levels deep plus a block's own nesting and whose
    one scope is two static blocks with the ``try``.  Raises
    :class:`BackendError` on malformed input."""
    cfg = _Cfg(func)
    every = frozenset(cfg.rpo)
    tree = RegionTree(cfg, cfg.units(every, func.entry, frozenset()),
                      (_MAX_DEPTH, _MAX_STATIC_BLOCKS))
    if tree.too_deep():
        tree = RegionTree(cfg, [cfg.dispatch_unit([func.entry], every)],
                          None)
    return tree


class StructuredEmitter:
    """Translates one verified IR function into Python source: recovers
    its region tree, then prints it (see the module docstring)."""

    def __init__(self, func: Function):
        self.func = func

    # ------------------------------------------------------------------
    # The printer: each node at its recorded depth.
    # ------------------------------------------------------------------
    def _line(self, depth: int, text: str) -> None:
        self._lines.append(_INDENT * depth + text)

    def _print(self, node: _Node) -> None:
        if isinstance(node, BlockNode):
            self._print_block(node)
        elif isinstance(node, Split):
            self._line(node.depth, f"if _b < {node.pivot}:")
            self._print(node.low)
            self._line(node.depth, "else:")
            self._print(node.high)
        else:
            self._print_scope(node)

    def _print_scope(self, scope: Scope) -> None:
        """A scope's ``while`` and its landing: arrival routing for the
        ``_st`` unwinding protocol, elided when no ``_st`` was set
        inside (only plain one-level breaks arrived, which simply fall
        through)."""
        depth, outer = scope.depth, scope.outer
        if scope.fall_in is not None:
            self._line(depth, f"_b = {scope.fall_in}")
        self._line(depth, "while True:")
        for node in scope.body:
            self._print(node)
        if not scope.landing:
            return
        # Arriving at an enclosing loop continues it; clearing the token
        # of an enclosing dispatch region falls out of its tree arm to
        # the dispatch loop's end, re-dispatching on the already-set _b.
        action = {"loop": "_st = -1; continue", "dispatch": "_st = -1"}.get(
            getattr(outer, "kind", None))
        route = action and f"_st == {outer.token}: {action}"
        if scope.kind == "merge":
            self._line(depth, "if _st != -1:")
            self._line(depth + 1, f"if _st == {scope.token}: _st = -1")
            if route:
                self._line(depth + 1, f"elif {route}")
            if outer is not None:
                self._line(depth + 1, "else: break")
        elif route:
            self._line(depth, f"if {route}")
            self._line(depth, "else: break")
        elif outer is not None:
            self._line(depth, "break")

    def _print_edge(self, edge: Edge) -> None:
        depth, label = edge.depth, edge.call.block
        if label == self.func.entry:
            # Every other block's charge counts the branch that entered
            # it; the entry block's cannot, a call enters it too.
            self._line(depth, "_fu += 1")
        target = self.func.blocks[label]
        pairs = [(param, arg)
                 for (param, _), arg in zip(target.params, edge.call.args)
                 if param != arg]
        if pairs:
            lhs = ", ".join(f"v{param}" for param, _ in pairs)
            rhs = ", ".join(self._val(arg) for _, arg in pairs)
            self._line(depth, f"{lhs} = {rhs}")
        if edge.child is not None:
            self._print(edge.child)
            return
        if edge.b is not None:
            self._line(depth, f"_b = {edge.b}")
        if edge.exit == "st":
            self._line(depth, f"_st = {edge.token}")
            self._line(depth, "break")
        elif edge.exit == "redispatch":
            # Fall out of the tree arm to the dispatch loop's end, which
            # re-dispatches.
            self._line(depth, f"# -> block{label}")
        else:
            self._line(depth, edge.exit)

    # ------------------------------------------------------------------
    # Blocks and terminators under batched fuel.
    # ------------------------------------------------------------------
    def _print_block(self, node: BlockNode) -> None:
        depth, edges = node.depth, node.edges
        block = self.func.blocks[node.bid]
        leaf = "" if node.leaf is None else f" [_b={node.leaf}]"
        self._line(depth, f"# block{node.bid}{leaf}")
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
            self._line(depth, raw)
        # Same boundary the VM checks at: after the block's instructions,
        # before charging the terminator, which the successor's charge
        # counts (a return or trap, having none, charges its own).
        self._line(depth,
                   "if _L is not None and S.fuel + _fu > _L: _oof(_L)")
        if isinstance(term, Jump) or (isinstance(term, BrTable)
                                      and not term.cases):
            self._print_edge(edges[0])
        elif isinstance(term, BrIf):
            cond = self._val(term.cond) if fused is None else \
                _BARE_COMPARES[fused.op].format(
                    *[self._val(a) for a in fused.args])
            self._line(depth, f"if {cond}:")
            self._print_edge(edges[0])
            self._line(depth, "else:")
            self._print_edge(edges[1])
        elif isinstance(term, BrTable):
            self._line(depth, f"_i = {self._val(term.index)}")
            for pos, edge in enumerate(edges[:-1]):
                self._line(depth, f"{'if' if pos == 0 else 'elif'} "
                                  f"_i == {pos}:")
                self._print_edge(edge)
            self._line(depth, "else:")
            self._print_edge(edges[-1])
        elif isinstance(term, Ret):
            self._line(depth, "_fu += 1")
            if term.args:
                self._line(depth, f"return {self._val(term.args[0])}")
            else:
                self._line(depth, "return None")
        elif isinstance(term, Trap):
            self._line(depth, "_fu += 1")
            self._line(depth, f"raise VMTrap({term.message!r})")
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
            return [f"{r} = " + pure.format(
                *[self._val(a) for a in args])]

        mem = LOADS.get(op) or STORES.get(op)
        if mem is not None:
            # The row's own two lines: the mask test, the checked
            # accessor (the access the VM runs) out of line, the view's
            # subscript.
            self.used.add("M")
            if mem.view != "M":
                self.heap.add(mem.view)
            self.heap.add(mem.mask)
            pre: List[str] = []
            a = self._addr(instr, pre)
            value = self._val(args[1]) if len(args) > 1 else None
            return pre + [line.format(a=a, r=r, v=value)
                          for line in mem.text]

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
        bindings.append("_L = vm.fuel_limit")
        return bindings

    def emit_source(self) -> str:
        func = self.func
        tree = recover_structure(func)
        # The shape of the source: "structured", or "dispatch" when the
        # whole function is one dispatch region; and how much of it is
        # left to dispatch regions — the irreducible SCCs, or that one
        # region and every block.
        self.mode_used = tree.mode
        self.dispatch_regions = tree.dispatch_regions
        self.dispatch_region_blocks = tree.dispatch_region_blocks
        # How often each value is used (what compare->branch fusion
        # asks), and the literal each constant's uses print.
        uses: List[int] = []
        self._literals: Dict[int, str] = {}
        for bid in tree.rpo:
            block = func.blocks[bid]
            uses += terminator_values(block.terminator)
            for instr in block.instrs:
                uses += instr.args
                if instr.op in ("iconst", "fconst"):
                    literal = _const_literal(instr)
                    if literal is not None:
                        self._literals[instr.result] = literal
        self._use_counts = collections.Counter(uses)
        self.used: Set[str] = set()
        # The heap views, masks and scratch views the body reads (each a
        # VM attribute of the same name: repro.ir.semantics.heap_views).
        self.heap: Set[str] = set()
        # Call-site link descriptors, in site order: ("c", callee, argc)
        # for direct calls, ("t", argc) for indirect.  Derived purely
        # from the function body, so cached sources stay byte-stable.
        self.link_sites: List[tuple] = []
        self._lines: List[str] = []
        for node in tree.body:
            self._print(node)

        params = [f"v{v}" for v, _ in func.entry_block().params]
        lines = [f"# {func.name}{func.sig} — compiled from residual "
                 f"IR by repro.backend.StructuredEmitter",
                 f"def _compiled({', '.join(['vm', *params])}):"]
        lines.extend(_INDENT + line
                     for line in self._prologue() + self._preamble())
        lines.append(f"{_INDENT}_fu = 0")
        if tree.st_exits:
            lines.append(f"{_INDENT}_st = -1")
        lines.append(f"{_INDENT}try:")
        lines.extend(self._lines)
        lines += [f"{_INDENT}finally:", f"{_INDENT * 2}S.fuel += _fu",
                  f"{_INDENT * 2}vm._call_depth -= 1",
                  f"_compiled._nparams = {len(params)}"]
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
    ``"dispatch"`` when the structured tree nested past the indent
    budget or the static-block limit and the whole function was emitted
    as one dispatch region (the choice is deterministic, so cached
    sources stay stable).
    """
    # Emission reads neither ``module`` nor ``mode``.  They survive for
    # their callers: the engine passes ``module``, and
    # benchmarks/ledger/ledger_workloads.py::_measure_emitted both.
    if mode != "structured":
        raise BackendError(f"unknown emit mode {mode!r}")
    emitter = StructuredEmitter(func)
    return emitter.emit_source(), emitter.mode_used, emitter
