"""Golden snapshots of the Python source the tier-2 backend emits.

The emitted text for the two fixed golden workloads (the Fig. 8 Min sum
residual and the MiniLua gcd residual) is snapshotted under
``tests/golden/``, so any emitter change — dispatch shape, per-block
counters, instruction lowering — shows up as a reviewable diff rather
than a silent codegen churn.  Accept intentional changes with::

    PYTHONPATH=src python -m pytest tests/test_golden_backend.py --update-golden

Each test also executes the compiled function and checks the result, so
a golden snapshot can never capture broken code.

``tests/golden/emitter_pin.txt`` is the tripwire beside them: the
artifact store keys emitted code by ``EMITTER_VERSION``, so emitted
bytes that change under an unchanged version would let a warm store
serve the old code under the new emitter's key.  The pin holds the
version and a digest of the emitted text of a fixed corpus; a digest
that moves at an equal version fails until the version is bumped.
"""

import hashlib
import os

import pytest

from repro.backend import compile_python_source, emit_function_source, emitter
from repro.ir import F64, I64
from repro.ir.instructions import OPCODES
from repro.ir.semantics import LOADS, STORES
from repro.luavm.runtime import LuaRuntime
from repro.min.harness import sum_to_n_program
from repro.min.interp import PROGRAM_BASE, build_min_module, specialize_min
from repro.pipeline.artifacts import EMITTER_VERSION
from repro.vm import VM

from tests.helpers import (
    COMPARE_OPS,
    GOLDEN_DIR,
    MAX_COMPILABLE_LOOP_NEST,
    branch_chain,
    check_golden,
    compare_module,
    loop_nest,
    region_shapes,
    single_op_module,
)
from tests.test_golden_ir import LUA_GCD_SRC


def _min_sum_function():
    """``(func, module)`` of the golden Min residual; its emitted
    source, run, sums 1..5."""
    program = sum_to_n_program(5)
    module = build_min_module(program)
    func = specialize_min(module, program, use_intrinsics=False,
                          name="min_sum_golden")
    source = emit_function_source(func, module)[0]
    vm = VM(module)
    vm.install_compiled({func.name: compile_python_source(func.name, source)})
    assert vm.call(func.name,
                   [PROGRAM_BASE, len(program.words), 0]) == 15
    return func, module


def _lua_gcd_function():
    """``(func, module)`` of the golden MiniLua gcd residual, after a
    compiled run printed its result."""
    runtime = LuaRuntime(LUA_GCD_SRC)
    runtime.aot_compile()
    runtime.run_aot(backend="py")
    assert runtime.printed == [21]
    assert "lua$gcd" in runtime.compiler.backend_functions
    return runtime.module.functions["lua$gcd"], runtime.module


def _min_sum_source() -> str:
    return emit_function_source(*_min_sum_function())[0]


def _lua_gcd_source() -> str:
    return emit_function_source(*_lua_gcd_function())[0]


def test_min_sum_emitted_py_golden(request):
    """Emitted Python for the Fig. 8 sum-to-n Min residual."""
    check_golden(request, "min_sum_py", _min_sum_source())


def test_lua_gcd_emitted_py_golden(request):
    """Emitted Python for the MiniLua gcd residual."""
    check_golden(request, "lua_gcd_py", _lua_gcd_source())


def pin_functions():
    """``(func, module)`` of each function the pin digests: the two
    goldens, one function per control shape, per memory row and per
    compare row (fused into its branch, and assigned as its whole row), and
    the shapes at the emitter's limits: the loop nests on both sides of
    the static-block cliff, a branch chain twice the indent budget and
    an irreducible cycle inside a structured skeleton."""
    yield _min_sum_function()
    yield _lua_gcd_function()
    module, func, _ = region_shapes(2)
    yield func, module
    modules = [branch_chain(8), loop_nest(3),
               loop_nest(MAX_COMPILABLE_LOOP_NEST),
               loop_nest(MAX_COMPILABLE_LOOP_NEST + 1),
               branch_chain(2 * emitter._MAX_DEPTH)]
    for op in sorted(LOADS):
        modules.append(single_op_module(op, (I64,), OPCODES[op].result,
                                        imm=8))
    for op in sorted(STORES):
        value_type = F64 if STORES[op].float else I64
        modules.append(single_op_module(op, (I64, value_type), None, imm=8))
    for op in COMPARE_OPS:
        modules.append(compare_module(op, "branch")[0])
        modules.append(compare_module(op, "returned")[0])
    for module in modules:
        (func,) = module.functions.values()
        yield func, module


def _pin_corpus():
    """The emitted sources the pin digests."""
    for func, module in pin_functions():
        yield emit_function_source(func, module)[0]


def test_emitted_bytes_are_pinned_to_emitter_version(request):
    digest = hashlib.sha256(
        "\0".join(_pin_corpus()).encode()).hexdigest()
    path = os.path.join(GOLDEN_DIR, "emitter_pin.txt")
    if request.config.getoption("--update-golden"):
        with open(path, "w") as handle:
            handle.write(f"{EMITTER_VERSION} {digest}\n")
        return
    with open(path) as handle:
        pinned_version, pinned_digest = handle.read().split()
    if int(pinned_version) != EMITTER_VERSION:
        pytest.fail(f"EMITTER_VERSION is {EMITTER_VERSION}, the pin is for "
                    f"{pinned_version}: record it with --update-golden")
    if digest != pinned_digest:
        pytest.fail(f"emitted bytes changed under EMITTER_VERSION "
                    f"{EMITTER_VERSION}: bump it in pipeline/artifacts.py")
