"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import json
import os
from typing import Dict, Optional, Tuple

import pytest

from repro.backend import CompiledFunction, compile_function, emitter
from repro.frontend import compile_source
from repro.ir import (
    I64,
    FunctionBuilder,
    HostFunc,
    Module,
    Signature,
    parse_function,
    print_function,
    verify_module,
)
from repro.ir.instructions import OPCODES
from repro.ir.semantics import PURE_EXPRS
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


def compile_legs(func, module) -> Dict[str, CompiledFunction]:
    """``func`` compiled once per leg; each leg must be the one asked
    for (a forced fallback that stayed structured would test nothing)."""
    compiled = {}
    for leg in EMIT_LEGS:
        with emit_leg(leg):
            compiled[leg] = compile_function(func, module)
        assert compiled[leg].mode_used == leg, (func.name, leg)
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
# IR-level nests at the emitter's two depth limits.
# ---------------------------------------------------------------------------

def _single_function_module(fb: FunctionBuilder) -> Module:
    module = Module(memory_size=64)
    module.add_function(fb.finish())
    verify_module(module)
    return module


def branch_chain(depth: int) -> Module:
    """``chain(n)``: a join-free chain of ``depth`` branches — level
    ``i`` returns ``i`` when ``n == i`` and otherwise tests level
    ``i + 1``; past the last, ``depth``.  Every block has one
    predecessor, so structured emission nests one indent level per
    branch."""
    fb = FunctionBuilder("chain", Signature((I64,), (I64,)))
    n = fb.entry.params[0][0]
    for level in range(depth):
        k = fb.iconst(level)
        hit, miss = fb.new_block(), fb.new_block()
        fb.br_if(fb.ieq(n, k), hit, miss)
        fb.switch_to(hit)
        fb.ret(k)
        fb.switch_to(miss)
    fb.ret(fb.iconst(depth))
    return _single_function_module(fb)


# CPython compiles at most 20 statically nested blocks; the emitted
# function's ``try`` is one, each loop's ``while True:`` another.
MAX_COMPILABLE_LOOP_NEST = 19


def loop_nest(depth: int) -> Module:
    """``nest(n)``: ``depth`` counted loops inside one another, ``n``
    trips each (``n >= 1``); returns how often the innermost body ran,
    ``n ** depth``.  Structured emission opens one ``while True:`` — one
    of CPython's statically nested blocks — per loop."""
    fb = FunctionBuilder("nest", Signature((I64,), (I64,)))
    n = fb.entry.params[0][0]
    one = fb.iconst(1)
    zero = fb.iconst(0)
    headers = [fb.new_block([I64, I64]) for _ in range(depth)]
    # latches[k] ends a trip of loop k; latches[0] is the function exit.
    latches = [fb.new_block([I64]) for _ in range(depth)]
    fb.jump(headers[0], [n, zero])
    for k, header in enumerate(headers):
        fb.switch_to(header)
        trips_left, acc = header.param_values()
        if k + 1 < depth:
            fb.jump(headers[k + 1], [n, acc])
            fb.switch_to(latches[k + 1])
            acc = latches[k + 1].param_values()[0]
        else:
            acc = fb.iadd(acc, one)
        rest = fb.isub(trips_left, one)
        fb.br_if(fb.ine(rest, zero), header, latches[k],
                 [rest, acc], [acc])
    fb.switch_to(latches[0])
    fb.ret(latches[0].param_values()[0])
    return _single_function_module(fb)


# ---------------------------------------------------------------------------
# One-op functions: the op-grid harness, the fusion oracle and the
# emitter pin all build their probes here.
# ---------------------------------------------------------------------------

def single_op_module(op: str, arg_types, result_type, imm=None,
                     memory_size: int = 64) -> Module:
    """``f(*args)``: ``op`` applied to the parameters, result returned.
    The instruction sits in a second block, so the forced-fallback leg
    reaches it across a region edge (a ``_b`` assignment and a trip
    through the dispatch tree)."""
    results = () if result_type is None else (result_type,)
    fb = FunctionBuilder("f", Signature(tuple(arg_types), results))
    body = fb.new_block()
    fb.jump(body)
    fb.switch_to(body)
    value = fb.emit(op, [v for v, _ in fb.entry.params], imm=imm)
    fb.ret(*(() if value is None else (value,)))
    module = Module(memory_size=memory_size)
    module.add_function(fb.finish())
    return module


# The compare rows of the op table: ``_int(<cmp>)``.
COMPARE_OPS = tuple(op for op, expr in PURE_EXPRS.items()
                    if expr.startswith("_int("))


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
    params = (ty, ty, I64) if shape == "after_load" else (ty, ty)
    fb = FunctionBuilder("f", Signature(params, (I64,)))
    a, b = (v for v, _ in fb.entry.params[:2])
    if shape == "looped":
        # c leaves at once when it holds, else rides three trips of the
        # loop as a block argument before it is returned.
        header = fb.new_block([I64])
        latch, out = fb.new_block([I64, I64]), fb.new_block([I64])
        fb.jump(header, [fb.iconst(3)])
        fb.switch_to(header)
        c = fb.emit(op, (a, b))
        rest = fb.isub(header.param_values()[0], fb.iconst(1))
        fb.br_if(c, out, latch, [c], [rest, c])
        fb.switch_to(latch)
        rest, carried = latch.param_values()
        fb.br_if(fb.ine(rest, fb.iconst(0)), header, out,
                 [rest], [carried])
        fb.switch_to(out)
        fb.ret(out.param_values()[0])
    else:
        if shape == "after_load":
            fb.load64(fb.entry.params[2][0])
        c = fb.emit(op, (a, b))
        if shape == "stored":
            zero = fb.iconst(0)
            fb.store64(zero, c)
        elif shape == "probed":
            fb.call("probe", [c])
        elif shape == "other_block":
            branch = fb.new_block()
            fb.jump(branch)
            fb.switch_to(branch)
        hit, miss = fb.new_block(), fb.new_block()
        fb.br_if(c, hit, miss)
        if shape == "two_branches":
            fb.switch_to(hit)
            hit = fb.new_block()
            fb.br_if(c, hit, miss)
        for block, constant in ((hit, 11), (miss, 22)):
            fb.switch_to(block)
            if shape in ("branch", "after_load"):
                fb.ret(fb.iconst(constant))
            else:
                fb.ret(fb.load64(zero) if shape == "stored" else c)
    module = Module(memory_size=64)
    if shape == "probed":
        module.add_import(HostFunc("probe", Signature((I64,), ()), probe))
    module.add_function(fb.finish())
    verify_module(module)
    return module, c
