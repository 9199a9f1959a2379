"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import difflib
import os
from typing import Dict, Optional, Tuple

import pytest

from repro.backend import CompiledFunction, compile_function, emitter
from repro.frontend import compile_source
from repro.ir import I64, FunctionBuilder, Module, Signature, verify_module
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
