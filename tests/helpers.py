"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import itertools
import json
import os
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.backend import (
    StructuredEmitter,
    compile_python_source,
    emit_function_source,
    emitter,
)
from repro.frontend import compile_source
from repro.ir import (
    I64,
    HostFunc,
    Module,
    Signature,
    parse_function,
    print_function,
    verify_module,
)
from repro.ir.instructions import OPCODES
from repro.vm import VM

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def check_golden(request, name: str, text: str) -> None:
    """Diff ``text`` against ``tests/golden/<name>.txt`` (or rewrite the
    snapshot when running with ``--update-golden``)."""
    path = os.path.join(GOLDEN_DIR, name + ".txt")
    if request.config.getoption("--update-golden"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text + "\n")
        return
    assert os.path.exists(path), (
        f"golden file {path} missing; run with --update-golden to create")
    with open(path) as handle:
        expected = handle.read().rstrip("\n")
    if text.rstrip("\n") != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), text.rstrip("\n").splitlines(),
            fromfile=f"golden/{name}.txt", tofile="current", lineterm=""))
        pytest.fail(
            f"golden output for {name!r} changed; run --update-golden if "
            f"intentional:\n{diff}")


# ---------------------------------------------------------------------------
# The program corpus: every guest benchmark program, once.  The ledger
# measures these frozen files and the figures draw from them.
# ---------------------------------------------------------------------------

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "benchmarks", "ledger", "programs")


def corpus_manifest(root: str = CORPUS_DIR) -> Dict[str, str]:
    """``rel -> sha256`` for every file of the corpus at ``root``, in
    ``MANIFEST.json``'s (sorted) order."""
    with open(os.path.join(root, "MANIFEST.json"), encoding="utf-8") as handle:
        return json.load(handle)["sha256"]


def corpus_program(rel: str, root: str = CORPUS_DIR) -> str:
    """The text of one corpus program, e.g. ``"js/richards.js"``; raises
    unless its bytes are the ones ``MANIFEST.json`` pins."""
    with open(os.path.join(root, rel), "rb") as handle:
        data = handle.read()
    if hashlib.sha256(data).hexdigest() != corpus_manifest(root).get(rel):
        raise ValueError(f"corpus program {rel} does not match MANIFEST.json")
    return data.decode("utf-8")


def build_module(source: str, memory_size: int = 1 << 16,
                 externs: Optional[Dict[str, object]] = None,
                 verify: bool = True) -> Module:
    """Compile mini-C source into a fresh verified module."""
    module = Module(memory_size=memory_size)
    program = compile_source(source)
    program.add_to_module(module, externs=externs)
    if verify:
        verify_module(module)
    return module


def run(source: str, func: str, args=(), memory_size: int = 1 << 16,
        externs: Optional[Dict[str, object]] = None):
    """Compile and execute one function; returns its result."""
    module = build_module(source, memory_size, externs)
    vm = VM(module)
    return vm.call(func, list(args))


def run_with_stats(source: str, func: str, args=(),
                   memory_size: int = 1 << 16,
                   externs: Optional[Dict[str, object]] = None):
    module = build_module(source, memory_size, externs)
    vm = VM(module)
    result = vm.call(func, list(args))
    return result, vm.stats


def clone(func, module: Optional[Module] = None,
          name: Optional[str] = None):
    """A deep copy of ``func`` through the IR's one text: value and block
    ids are kept, so the copy can be transformed beside the original
    (``module`` gives a ``call``'s result type)."""
    return parse_function(print_function(func, order="id"), module, name)


def block_params(func) -> int:
    """Block parameters of every block but the entry, whose parameters
    are the function's own: S3.4's measure of SSA blow-up."""
    return sum(len(block.params) for block in func.blocks.values()
               if block.id != func.entry)


def assert_text_round_trips(func, module: Optional[Module] = None):
    """``print_function(parse_function(text, module)) == text`` for
    ``func``'s text in both print orders; returns the function parsed
    from its ``order="id"`` text, the form the artifact store keeps."""
    for order in ("rpo", "id"):
        text = print_function(func, order=order)
        parsed = parse_function(text, module)
        assert print_function(parsed, order=order) == text, text
    return parsed


# ---------------------------------------------------------------------------
# The two tier-2 legs every three-way test sets beside the VM.
# ---------------------------------------------------------------------------

# Named by the ``mode_used`` they produce.
EMIT_LEGS = ("structured", "dispatch")


@contextlib.contextmanager
def emit_leg(leg: str):
    """Emit under one of :data:`EMIT_LEGS` for the ``with`` body:
    ``"structured"`` is the emitter as it is; ``"dispatch"`` lowers its
    nesting budget to nothing, so every function takes the too-deep
    fallback — the code production runs past the budget, not a
    test-only mode."""
    with pytest.MonkeyPatch.context() as patch:
        if leg == "dispatch":
            patch.setattr(emitter, "_MAX_DEPTH", 0)
        yield


def compile_py(func, module=None) -> Tuple[Callable, StructuredEmitter]:
    """``func`` as a Python callable, made by the engine's two calls:
    ``emit_function_source``, then ``compile_python_source``.  Returns
    ``(pyfunc, emitter)``; the emitter says which shape it chose
    (``mode_used``, ``dispatch_regions``, ``dispatch_region_blocks``)."""
    source, _, emitter_used = emit_function_source(func, module)
    return compile_python_source(func.name, source), emitter_used


def compile_legs(func, module) -> Dict[str, Callable]:
    """``func`` compiled once per leg by :func:`compile_py`; each leg
    must be the one asked for (a forced fallback that stayed structured
    would test nothing)."""
    compiled = {}
    for leg in EMIT_LEGS:
        with emit_leg(leg):
            compiled[leg], emitter_used = compile_py(func, module)
        assert emitter_used.mode_used == leg, (func.name, leg)
    return compiled


# ---------------------------------------------------------------------------
# f64 bit patterns: every class of double a constant can be, including
# the pairs Python's ``==`` or ``repr`` cannot tell apart (the two zeros,
# NaNs of different payloads).  A constant is its bit pattern, so each
# must survive every layer exactly.
# ---------------------------------------------------------------------------

FLOAT_BIT_PATTERNS = (
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0 (repr must keep the sign)
    0x0000000000000001,  # smallest subnormal
    0x8000000000000001,  # -smallest subnormal
    0x000FFFFFFFFFFFFF,  # largest subnormal
    0x0010000000000000,  # smallest normal
    0x7FEFFFFFFFFFFFFF,  # largest finite
    0xFFEFFFFFFFFFFFFF,  # -largest finite
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # canonical quiet NaN
    0xFFF8000000000000,  # negative quiet NaN
    0x7FF8DEADBEEFCAFE,  # quiet NaN with payload
    0xFFFFFFFFFFFFFFFF,  # NaN, all payload bits set
    0x3FF0000000000000,  # 1.0
    0x3FB999999999999A,  # 0.1 (shortest-repr round-trip)
)


# ---------------------------------------------------------------------------
# Hand-written IR is its printed text, read back by ``parse_function``:
# each fixture below formats one line list per block, in block-id order.
# ---------------------------------------------------------------------------

def function_text(header: str, blocks: Dict[int, List[str]]) -> str:
    """``header``, then each block's lines in id order, then ``}``: the
    text ``print_function(func, order="id")`` writes."""
    return "\n".join([header, *(line for bid in sorted(blocks)
                                 for line in blocks[bid]), "}"])


def target(block: int, args=()) -> str:
    """A branch target as the text spells it: ``block3``, or
    ``block3(v1, v2)`` for the value ids ``args``."""
    if not args:
        return f"block{block}"
    return f"block{block}({', '.join(f'v{a}' for a in args)})"


class IRText:
    """A function being written as its text, for the generators: one
    line list per block, ``block0`` first with the header's parameters,
    value ids from a counter, and every other block parameter an i64.
    :meth:`text` is what ``print_function(func, order="id")`` writes
    for the function ``parse_function`` reads from it."""

    def __init__(self, header: str, nparams: int):
        self.header = header
        self.blocks: Dict[int, List[str]] = {0: ["block0:"]}
        self.ids = itertools.count(nparams)
        self.current = 0

    def block(self, nparams: int = 0) -> Tuple[int, List[int]]:
        """A new block and its parameters' value ids."""
        bid, params = len(self.blocks), [next(self.ids)
                                         for _ in range(nparams)]
        label = ", ".join(f"v{v}: i64" for v in params)
        self.blocks[bid] = [f"block{bid}({label}):" if params
                            else f"block{bid}:"]
        return bid, params

    def line(self, text: str) -> None:
        """An instruction without a result, or a terminator, in the
        current block."""
        self.blocks[self.current].append("  " + text)

    def define(self, rhs: str) -> int:
        """``v<next> = rhs`` in the current block; returns the id."""
        value = next(self.ids)
        self.line(f"v{value} = {rhs}")
        return value

    def const(self, value: int) -> int:
        return self.define(f"iconst {value}")

    def text(self) -> str:
        return function_text(self.header, self.blocks)


# ---------------------------------------------------------------------------
# IR-level nests at the emitter's two depth limits.
# ---------------------------------------------------------------------------

def _single_function_module(text: str) -> Module:
    module = Module(memory_size=64)
    module.add_function(parse_function(text))
    verify_module(module)
    return module


def branch_chain(depth: int) -> Module:
    """``chain(n)``: a join-free chain of ``depth`` branches — level
    ``i`` returns ``i`` when ``n == i`` and otherwise tests level
    ``i + 1``; past the last, ``depth``.  Every block has one
    predecessor, so structured emission nests one indent level per
    branch."""
    # Level i tests in block 2i: v<2i+1> is i, v<2i+2> the compare.
    blocks = {0: ["block0:"]}
    for level in range(depth):
        k, miss = 2 * level + 1, 2 * level + 2
        blocks[k - 1] += [f"  v{k} = iconst {level}",
                          f"  v{k + 1} = ieq v0, v{k}",
                          f"  br_if v{k + 1}, block{k}, block{miss}"]
        blocks[k] = [f"block{k}:", f"  return v{k}"]
        blocks[miss] = [f"block{miss}:"]
    last = 2 * depth + 1
    blocks[2 * depth] += [f"  v{last} = iconst {depth}", f"  return v{last}"]
    return _single_function_module(function_text(
        "func @chain(v0: i64) -> i64 {", blocks))


# CPython compiles at most 20 statically nested blocks; the emitted
# function's ``try`` is one, each loop's ``while True:`` another.  The
# deepest nest structured emission keeps; one loop more is emitted flat.
MAX_COMPILABLE_LOOP_NEST = 19


def loop_nest(depth: int) -> Module:
    """``nest(n)``: ``depth`` counted loops inside one another, ``n``
    trips each (``n >= 1``); returns how often the innermost body ran,
    ``n ** depth``.  Structured emission opens one ``while True:`` — one
    of CPython's statically nested blocks — per loop.  Loop ``k``'s
    header is ``block<k + 1>(trips left, acc)``; its latch, which ends
    a trip of loop ``k - 1`` (loop 0's is the function exit), is
    ``block<depth + 1 + k>(acc)``."""
    def header(k):
        return k + 1, 3 + 2 * k

    def latch(k):
        return depth + 1 + k, 3 + 2 * depth + k

    blocks = {0: ["block0:", "  v1 = iconst 1", "  v2 = iconst 0",
                  "  jump block1(v0, v2)"]}
    for k in range(depth):
        bid, trips = header(k)
        blocks[bid] = [f"block{bid}(v{trips}: i64, v{trips + 1}: i64):"]
        bid, acc = latch(k)
        blocks[bid] = [f"block{bid}(v{acc}: i64):"]
    vid = 3 + 3 * depth
    for k in range(depth):
        bid, trips = header(k)
        if k + 1 < depth:
            blocks[bid].append(f"  jump block{bid + 1}(v0, v{trips + 1})")
            bid, acc = latch(k + 1)
        else:
            blocks[bid].append(f"  v{vid} = iadd v{trips + 1}, v1")
            acc, vid = vid, vid + 1
        blocks[bid] += [
            f"  v{vid} = isub v{trips}, v1",
            f"  v{vid + 1} = ine v{vid}, v2",
            f"  br_if v{vid + 1}, block{k + 1}(v{vid}, v{acc}), "
            f"block{latch(k)[0]}(v{acc})"]
        vid += 2
    bid, acc = latch(0)
    blocks[bid].append(f"  return v{acc}")
    return _single_function_module(function_text(
        "func @nest(v0: i64) -> i64 {", blocks))


def region_shapes(loops: int):
    """``shapes(n, sel)`` (``n >= 1``): ``loops`` nested loops, each
    left after one trip, around an irreducible cycle with two entries,
    ``a`` and ``b`` (``sel`` picks the first), that ``n`` trips leave.
    Inside the cycle ``a`` reaches ``b`` directly or through the
    single-predecessor chain ``c -> d``; the cycle's two
    single-predecessor exits join at ``out``.  Returns ``(module,
    func, blocks)``, ``blocks`` naming ``a``, ``b``, ``out`` and the
    loop ``headers``."""
    ir = IRText("func @shapes(v0: i64, v1: i64) -> i64 {", 2)
    n, sel = 0, 1
    zero, one, three, five, seven, never = (
        ir.const(value) for value in (0, 1, 3, 5, 7, (1 << 64) - 1))
    headers = [ir.block(1) for _ in range(loops)]
    latches = [ir.block(1) for _ in range(loops)]
    (a, (i_a, acc_a)), (b, (i_b, acc_b)), (c, (i_c, acc_c)), \
        (d, (i_d, acc_d)) = (ir.block(2) for _ in range(4))
    (exit_a, (r_a,)), (exit_b, (r_b,)), (out, (r,)), (done, (result,)) = (
        ir.block(1) for _ in range(4))

    def enter(acc):
        return (f"br_if v{sel}, {target(a, [n, acc])}, "
                f"{target(b, [n, acc])}")

    ir.line(f"jump {target(headers[0][0], [zero])}" if loops
            else enter(zero))
    for k, (header, (acc,)) in enumerate(headers):
        ir.current = header
        ir.line(f"jump {target(headers[k + 1][0], [acc])}"
                if k + 1 < loops else enter(acc))
    for k, (latch, (acc,)) in enumerate(latches):
        ir.current = latch
        again = ir.define(f"ieq v{acc}, v{never}")
        leave = latches[k - 1][0] if k else done
        ir.line(f"br_if v{again}, {target(headers[k][0], [acc])}, "
                f"{target(leave, [acc])}")
    ir.current = a
    acc = ir.define(f"iadd v{acc_a}, v{three}")
    trips = ir.define(f"isub v{i_a}, v{one}")
    more = ir.define(f"ine v{trips}, v{zero}")
    ir.line(f"br_if v{more}, {target(c, [trips, acc])}, "
            f"{target(exit_a, [acc])}")
    ir.current = c
    acc = ir.define(f"imul v{acc_c}, v{five}")
    odd = ir.define(f"iand v{acc}, v{one}")
    ir.line(f"br_if v{odd}, {target(d, [i_c, acc])}, "
            f"{target(b, [i_c, acc])}")
    ir.current = d
    acc = ir.define(f"ixor v{acc_d}, v{seven}")
    ir.line(f"jump {target(b, [i_d, acc])}")
    ir.current = b
    acc = ir.define(f"iadd v{acc_b}, v{i_b}")
    trips = ir.define(f"isub v{i_b}, v{one}")
    more = ir.define(f"ine v{trips}, v{zero}")
    ir.line(f"br_if v{more}, {target(a, [trips, acc])}, "
            f"{target(exit_b, [acc])}")
    ir.current = exit_a
    ir.line(f"jump {target(out, [r_a])}")
    ir.current = exit_b
    bumped = ir.define(f"iadd v{r_b}, v{one}")
    ir.line(f"jump {target(out, [bumped])}")
    ir.current = out
    ir.line(f"jump {target(latches[-1][0] if loops else done, [r])}")
    ir.current = done
    ir.line(f"return v{result}")
    module = Module(memory_size=64)
    func = parse_function(ir.text())
    module.add_function(func)
    return module, func, {"a": a, "b": b, "out": out,
                          "headers": [h for h, _ in headers]}


# ---------------------------------------------------------------------------
# One-op functions: the op-grid harness, the fusion oracle and the
# emitter pin all build their probes here.
# ---------------------------------------------------------------------------

def single_op_module(op: str, arg_types, result_type, imm=None,
                     memory_size: int = 64) -> Module:
    """``f(*args)``: ``op`` applied to the parameters, result returned.
    The instruction sits in a second block, so the forced-fallback leg
    reaches it across a region edge (a ``_b`` assignment and a trip
    through the dispatch tree).  ``imm`` is a memory op's offset."""
    n = len(arg_types)
    params = ", ".join(f"v{i}: {ty}" for i, ty in enumerate(arg_types))
    args = ", ".join(f"v{i}" for i in range(n))
    offset = f" +{imm}" if imm else ""
    if result_type is None:
        body = [f"  {op}{offset} {args}", "  return"]
        header = f"func @f({params}) {{"
    else:
        body = [f"  v{n} = {op}{offset} {args}", f"  return v{n}"]
        header = f"func @f({params}) -> {result_type} {{"
    module = Module(memory_size=memory_size)
    module.add_function(parse_function(function_text(
        header, {0: ["block0:", "  jump block1"], 1: ["block1:", *body]})))
    return module


# The compare rows of the op table, ``1 if <cmp> else 0``, as the
# emitter finds them to fuse them: every parametrized fusion and pin
# test draws from this, so it must not come up empty.
COMPARE_OPS = tuple(emitter._BARE_COMPARES)
assert len(COMPARE_OPS) == 16, COMPARE_OPS


def compare_module(op: str, shape: str, probe=None) -> Tuple[Module, int]:
    """``f(a, b[, addr])`` around ``c = op(a, b)``; returns the module
    and ``c``'s value id.  Every shape returns 1 when the compare holds
    and 0 when it does not (``"branch"`` and ``"after_load"``: 11 / 22,
    from constants, so nothing but the branch reads ``c``).

    * ``branch`` — ``br_if c`` in ``c``'s own block, its only use;
    * ``returned`` — both arms ``ret c``;
    * ``stored`` — ``store64 [0], c`` first, the arms return the word;
    * ``probed`` — ``c`` is passed to the host import ``probe``;
    * ``looped`` — ``c`` is a block argument carried around a loop;
    * ``after_load`` — ``branch`` behind a ``load64 addr`` in the block;
    * ``other_block`` — the ``br_if`` is in the next block;
    * ``two_branches`` — the taken arm tests ``c`` again.
    """
    ty = OPCODES[op].arg_types[0]
    if shape == "looped":
        # c leaves at once when it holds, else rides three trips of the
        # loop as a block argument before it is returned.
        c = 7
        text = f"""\
func @f(v0: {ty}, v1: {ty}) -> i64 {{
block0:
  v6 = iconst 3
  jump block1(v6)
block1(v2: i64):
  v7 = {op} v0, v1
  v8 = iconst 1
  v9 = isub v2, v8
  br_if v7, block3(v7), block2(v9, v7)
block2(v3: i64, v4: i64):
  v10 = iconst 0
  v11 = ine v3, v10
  br_if v11, block1(v3), block3(v4)
block3(v5: i64):
  return v5
}}"""
    else:
        params = f"v0: {ty}, v1: {ty}"
        entry = ["block0:"]
        c = 2
        if shape == "after_load":
            params += ", v2: i64"
            entry.append("  v3 = load64 v2")
            c = 4
        entry.append(f"  v{c} = {op} v0, v1")
        vid = c + 1
        if shape == "stored":
            zero, vid = vid, vid + 1
            entry += [f"  v{zero} = iconst 0", f"  store64 v{zero}, v{c}"]
        elif shape == "probed":
            entry.append(f"  call @probe v{c}")
        blocks, branch = {0: entry}, entry
        if shape == "other_block":
            entry.append("  jump block1")
            blocks[1] = branch = ["block1:"]
        hit, miss = len(blocks), len(blocks) + 1
        branch.append(f"  br_if v{c}, block{hit}, block{miss}")
        if shape == "two_branches":
            blocks[hit] = [f"block{hit}:", f"  br_if v{c}, block3, block2"]
            hit = 3
        for block, constant in ((hit, 11), (miss, 22)):
            if shape in ("branch", "after_load"):
                body = [f"  v{vid} = iconst {constant}", f"  return v{vid}"]
                vid += 1
            elif shape == "stored":
                body = [f"  v{vid} = load64 v{zero}", f"  return v{vid}"]
                vid += 1
            else:
                body = [f"  return v{c}"]
            blocks[block] = [f"block{block}:", *body]
        text = function_text(f"func @f({params}) -> i64 {{", blocks)
    module = Module(memory_size=64)
    if shape == "probed":
        module.add_import(HostFunc("probe", Signature((I64,), ()), probe))
    module.add_function(parse_function(text, module))
    verify_module(module)
    return module, c
