"""Structure recovery on its own: the region tree the emitter prints.

:func:`repro.backend.emitter.recover_structure` maps a function to its
region tree before anything is printed.  These tests hold the tree to
what the printer relies on:

* one shape per CFG class — a diamond, an early exit out of a loop, a
  loop nest, an irreducible cycle — as the tree's outline, and both
  sides of each of CPython's two limits (the indent budget and the
  static-block limit);
* every reachable block is placed exactly once and every edge is
  lowered exactly once, to one of five lowerings;
* each node's recorded indent level is the indentation the printer
  gives its first line, and its static-block depth is the number of
  ``while True:`` lines around that line, plus the ``try``;
* the too-deep verdict is the one ``mode_used`` reports: the tree is
  the whole-function dispatch region exactly when the structured tree,
  built without limits, is past either of them; and a structured tree
  past a limit is not built any deeper, so recovery of a function far
  past the indent budget fits CPython's default recursion limit;
* a hypothesis leg runs the same checks over ``test_opt.py``'s
  ``mid_end_functions`` and over random CFGs of up to a dozen blocks
  (irreducible ones included), whose compiled code must also agree
  with the IR VM under a fuel limit.
"""

import collections
import sys

import pytest
from hypothesis import given, note, settings, strategies as st

from repro.backend import compile_python_source, emit_function_source, emitter
from repro.backend.emitter import (
    BlockNode,
    Edge,
    Scope,
    Split,
    StructuredEmitter,
    recover_structure,
)
from repro.ir import Module, parse_function, print_function, verify_module
from repro.ir.cfg import reachable_blocks
from repro.vm import VM, OutOfFuel, VMTrap

from tests.helpers import (
    EMIT_LEGS,
    MAX_COMPILABLE_LOOP_NEST,
    branch_chain,
    emit_leg,
    function_text,
    loop_nest,
    region_shapes,
)
from tests.test_opt import mid_end_functions

LOWERINGS = {"inline", "continue", "break", "redispatch", "st"}


def _nodes(nodes):
    """Every node below ``nodes``, in the order the printer visits
    them."""
    for node in nodes:
        yield node
        if isinstance(node, BlockNode):
            yield from _nodes(node.edges)
        elif isinstance(node, Edge):
            yield from _nodes([node.child] if node.child else [])
        elif isinstance(node, Split):
            yield from _nodes([node.low, node.high])
        else:
            yield from _nodes(node.body)


def outline(tree) -> str:
    """The tree, one node a line, indented by each node's recorded depth
    below the function's ``try:``: the skeleton of the emitted body."""
    lines = []
    for node in _nodes(tree.body):
        if isinstance(node, BlockNode):
            text = f"block{node.bid}" + (
                "" if node.leaf is None else f" [_b={node.leaf}]")
        elif isinstance(node, Edge):
            text = f"-> block{node.call.block} {node.exit}"
            text += "" if node.b is None else f" _b={node.b}"
            text += f" _st={node.token}" if node.exit == "st" else ""
        elif isinstance(node, Split):
            text = f"_b < {node.pivot}"
        else:
            text = node.kind + (" landing" if node.landing else "")
            text += "" if node.fall_in is None else f" _b={node.fall_in}"
        lines.append("  " * (node.depth - 2) + text)
    return "\n".join(lines)


def _module(text: str) -> Module:
    module = Module(memory_size=64)
    module.add_function(parse_function(text))
    verify_module(module)
    return module


# ---------------------------------------------------------------------------
# The invariants, checked on every function below.
# ---------------------------------------------------------------------------

def check_placement(func, tree) -> None:
    """Each reachable block placed once; each of its edges lowered once,
    in terminator order, to one lowering; the maxima are the nodes'."""
    nodes = list(_nodes(tree.body))
    blocks = [node for node in nodes if isinstance(node, BlockNode)]
    edges = [node for node in nodes if isinstance(node, Edge)]
    assert collections.Counter(node.bid for node in blocks) \
        == collections.Counter(reachable_blocks(func))
    for node in blocks:
        calls = func.blocks[node.bid].terminator.targets()
        assert len(node.edges) == len(calls)
        assert all(edge.call is call for edge, call in zip(node.edges, calls))
    assert len(edges) == sum(len(node.edges) for node in blocks)
    for edge in edges:
        assert edge.exit in LOWERINGS
        assert (edge.exit == "inline") == (edge.child is not None)
    assert tree.st_exits == sum(edge.exit == "st" for edge in edges)
    assert tree.max_depth == max(node.depth for node in nodes)
    assert tree.max_static == max(node.static for node in nodes)
    scopes = [node for node in nodes if isinstance(node, Scope)]
    assert tree.dispatch_regions == sum(
        scope.kind == "dispatch" for scope in scopes)


class _Recording(StructuredEmitter):
    """The emitter, noting the body line each node's printing starts
    at."""

    def emit_source(self):
        self.visits = []
        return super().emit_source()

    def _print(self, node):
        self.visits.append((node, len(self._lines)))
        super()._print(node)

    def _print_edge(self, edge):
        self.visits.append((edge, len(self._lines)))
        super()._print_edge(edge)


def _indent(line: str) -> int:
    return (len(line) - len(line.lstrip(" "))) // len(emitter._INDENT)


def _whiles_around(lines, index: int) -> int:
    """How many ``while True:`` lines enclose ``lines[index]``."""
    count, depth = 0, _indent(lines[index])
    for line in reversed(lines[:index]):
        if line.strip() and _indent(line) < depth:
            depth = _indent(line)
            count += line.strip() == "while True:"
    return count


def check_printed_depths(func, tree) -> None:
    """The printer visits every node once and indents its first line by
    the node's ``depth``; the ``while True:`` lines around that line,
    its own and the ``try`` are its ``static``."""
    printer = _Recording(func)
    printer.emit_source()
    lines = printer._lines
    assert len(printer.visits) == len(list(_nodes(tree.body)))
    for node, index in printer.visits:
        assert _indent(lines[index]) == node.depth, (lines[index], node)
        own = isinstance(node, Scope)
        assert node.static == 1 + _whiles_around(lines, index) + own, (
            lines[index], node)


def check_verdict(func, module) -> None:
    """``mode_used`` is the tree's mode, which is ``"dispatch"`` exactly
    when the structured tree, recovered without limits, is past one."""
    tree = recover_structure(func)
    assert emit_function_source(func, module)[1] == tree.mode
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(emitter, "_MAX_DEPTH", 1 << 30)
        patch.setattr(emitter, "_MAX_STATIC_BLOCKS", 1 << 30)
        unbounded = recover_structure(func)
    assert unbounded.mode == "structured"
    too_deep = unbounded.max_depth > emitter._MAX_DEPTH \
        or unbounded.max_static > emitter._MAX_STATIC_BLOCKS
    assert tree.mode == ("dispatch" if too_deep else "structured")
    if not too_deep:
        assert outline(tree) == outline(unbounded)


def check_tree(func, module) -> None:
    """Every check above, on both emit legs."""
    for leg in EMIT_LEGS:
        with emit_leg(leg):
            tree = recover_structure(func)
            check_placement(func, tree)
            check_printed_depths(func, tree)
            check_verdict(func, module)


# ---------------------------------------------------------------------------
# One shape per CFG class.
# ---------------------------------------------------------------------------

DIAMOND = """\
func @f(v0: i64) -> i64 {
block0:
  br_if v0, block1, block2
block1:
  v1 = iconst 1
  jump block3(v1)
block2:
  v2 = iconst 2
  jump block3(v2)
block3(v3: i64):
  return v3
}"""

# A loop whose body leaves it from the middle: the exit block joins the
# loop's own exit, so it sits behind a merge scope around the loop, and
# the early exit unwinds through ``_st``.
EARLY_EXIT = """\
func @f(v0: i64) -> i64 {
block0:
  v1 = iconst 1
  jump block1(v0)
block1(v2: i64):
  br_if v2, block2, block4(v2)
block2:
  v3 = iand v2, v1
  br_if v3, block4(v3), block3
block3:
  v4 = isub v2, v1
  jump block1(v4)
block4(v5: i64):
  return v5
}"""


def test_diamond():
    """Both arms have one incoming edge, so they are inlined at the
    branch; the join has two, so a merge scope closes where it starts
    and each arm breaks to it."""
    module = _module(DIAMOND)
    func = module.functions["f"]
    tree = recover_structure(func)
    assert outline(tree) == """\
merge
  block0
    -> block1 inline
    block1
    -> block3 break
    -> block2 inline
    block2
    -> block3 break
block3"""
    assert (tree.mode, tree.st_exits, tree.dispatch_regions) \
        == ("structured", 0, 0)
    check_tree(func, module)


def test_early_exit():
    """Both exits, the loop's test and the one from the middle, branch
    from inside the loop to the merge scope around it: two levels out,
    so each sets ``_st`` to the scope's token; the loop's landing
    passes it on and the scope's own landing clears it."""
    module = _module(EARLY_EXIT)
    func = module.functions["f"]
    tree = recover_structure(func)
    assert outline(tree) == """\
merge landing
  block0
  -> block1 inline
  loop landing
    block1
      -> block2 inline
      block2
        -> block4 st _st=4
        -> block3 inline
        block3
        -> block1 continue
      -> block4 st _st=4
block4"""
    assert tree.st_exits == 2
    check_tree(func, module)


def test_loop_nest():
    """Each loop is a scope one level and one static block inside the
    last.  The inner backedge is ``continue``; the outer one, taken
    inside the inner loop, unwinds through ``_st``; each loop's exit is
    inlined at its one edge."""
    module = loop_nest(2)
    func = module.functions["nest"]
    tree = recover_structure(func)
    assert outline(tree) == """\
block0
-> block1 inline
loop landing
  block1
  -> block2 inline
  loop landing
    block2
      -> block2 continue
      -> block4 inline
      block4
        -> block1 st _st=1
        -> block3 inline
        block3"""
    check_tree(func, module)


def test_irreducible_cycle():
    """A two-entry cycle is a dispatch region: its tree has a leaf for
    each entry, an arriving branch assigns ``_b`` and unwinds to the
    region's merge scope, an edge inside it re-dispatches, and the rest
    of the cycle is inlined."""
    module, func, _ = region_shapes(0)
    tree = recover_structure(func)
    assert outline(tree) == """\
merge
  block0
    -> block1 break _b=0
    -> block2 break _b=1
merge landing
  dispatch landing
    _b < 1
      block1 [_b=0]
        -> block3 inline
        block3
          -> block4 inline
          block4
          -> block2 redispatch _b=1
          -> block2 redispatch _b=1
        -> block5 inline
        block5
        -> block7 st _st=7
      block2 [_b=1]
        -> block1 redispatch _b=0
        -> block6 inline
        block6
        -> block7 st _st=7
block7
-> block8 inline
block8"""
    assert (tree.mode, tree.dispatch_regions) == ("structured", 1)
    check_tree(func, module)


# ---------------------------------------------------------------------------
# Both sides of each of CPython's limits.
# ---------------------------------------------------------------------------

def test_the_indent_budget():
    """The deepest branch chain that stays structured reaches the budget
    exactly; one branch more is past it, and the tree is the whole
    function's dispatch region, a few levels deep."""
    shallow = branch_chain(emitter._MAX_DEPTH - 2)
    tree = recover_structure(shallow.functions["chain"])
    assert (tree.mode, tree.max_depth) == ("structured", emitter._MAX_DEPTH)
    assert tree.max_static == 1
    deep = branch_chain(emitter._MAX_DEPTH - 1)
    tree = recover_structure(deep.functions["chain"])
    assert tree.mode == "dispatch" and tree.max_depth < emitter._MAX_DEPTH
    assert (tree.dispatch_regions, tree.max_static) == (1, 2)
    for module in (shallow, deep):
        check_tree(module.functions["chain"], module)


def test_the_static_block_limit():
    """The deepest loop nest CPython compiles structured is exactly at
    the static-block limit; one loop more is past it."""
    module = loop_nest(MAX_COMPILABLE_LOOP_NEST)
    tree = recover_structure(module.functions["nest"])
    assert (tree.mode, tree.max_static) \
        == ("structured", emitter._MAX_STATIC_BLOCKS)
    check_tree(module.functions["nest"], module)
    module = loop_nest(MAX_COMPILABLE_LOOP_NEST + 1)
    tree = recover_structure(module.functions["nest"])
    assert (tree.mode, tree.max_static) == ("dispatch", 2)
    check_tree(module.functions["nest"], module)


def test_a_rejected_tree_is_not_built_past_the_limits():
    """Past a limit the structured tree is rejected whole, so recovery
    builds nothing deeper: a branch chain thirty times the indent
    budget, one nesting level per link, is recovered within CPython's
    default limit of 1 000 Python frames."""
    module = branch_chain(30 * emitter._MAX_DEPTH)
    func = module.functions["chain"]
    frames = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tree = recover_structure(func)
    finally:
        sys.setrecursionlimit(frames)
    assert tree.mode == "dispatch"
    check_placement(func, tree)


def test_recovery_is_pure():
    """Recovering twice gives the same tree and leaves the function as
    it was."""
    module, func, _ = region_shapes(2)
    text = print_function(func, order="id")
    first = outline(recover_structure(func))
    assert outline(recover_structure(func)) == first
    assert print_function(func, order="id") == text


# ---------------------------------------------------------------------------
# Generated functions.
# ---------------------------------------------------------------------------

@given(text=mid_end_functions())
@settings(max_examples=100, deadline=None)
def test_tree_invariants_on_mid_end_functions(text):
    note(text)
    func = parse_function(text)
    module = Module(memory_size=64)
    module.add_function(func)
    check_tree(func, module)


@st.composite
def random_cfgs(draw):
    """``g(v0)`` over up to a dozen blocks, each ending in a ``jump``,
    ``br_if``, ``br_table`` or ``return`` to blocks drawn at random, so
    any CFG shape — loops, early exits, multi-entry cycles — can come
    out.  ``v0`` steers every branch, and block ``k`` adds ``k``."""
    count = draw(st.integers(1, 12))
    target = st.integers(0, count - 1).map(lambda bid: f"block{bid}")
    blocks = {}
    for bid in range(count):
        step = f"v{bid + 1}"
        lines = [f"block{bid}:", f"  {step} = iconst {bid}",
                 f"  v{count + bid + 1} = iadd v0, {step}"]
        kind = draw(st.sampled_from(["jump", "br_if", "br_table", "return"]))
        if kind == "jump":
            lines.append(f"  jump {draw(target)}")
        elif kind == "br_if":
            lines.append(f"  br_if v{count + bid + 1}, {draw(target)}, "
                         f"{draw(target)}")
        elif kind == "br_table":
            cases = draw(st.lists(target, min_size=0, max_size=3))
            lines.append(f"  br_table v{count + bid + 1}, "
                         f"[{', '.join(cases)}], default {draw(target)}")
        else:
            lines.append(f"  return v{count + bid + 1}")
        blocks[bid] = lines
    return function_text("func @g(v0: i64) -> i64 {", blocks)


def _outcome(module, pyfunc, arg):
    vm = VM(module, fuel_limit=300)
    if pyfunc is not None:
        vm.install_compiled({"g": pyfunc})
    try:
        return "ok", vm.call("g", [arg]), vm.stats.fuel
    except VMTrap as trap:
        return "trap", str(trap), None
    except OutOfFuel as exc:
        return "out-of-fuel", str(exc), vm.stats.fuel


@given(text=random_cfgs(), arg=st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_tree_invariants_on_random_cfgs(text, arg):
    note(text)
    module = Module(memory_size=64)
    module.add_function(parse_function(text))
    func = module.functions["g"]
    check_tree(func, module)
    for leg in EMIT_LEGS:
        with emit_leg(leg):
            source = emit_function_source(func, module)[0]
        pyfunc = compile_python_source("g", source)
        assert _outcome(module, pyfunc, arg) == _outcome(module, None, arg)
