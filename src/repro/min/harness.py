"""Fig. 8 harness: Min across execution strategies.

Configurations (paper Fig. 8), with our platform substitutions:

* ``compiled`` — the guest computation written directly in mini-C and run
  on the VM (the "native compiled C" analog on the same platform the
  specialized code runs on);
* ``py_interp`` — a pure-Python Min interpreter (the "native
  interpreter": an interpreter running directly on the host platform);
* ``vm_interp`` — the mini-C Min interpreter on the VM (the "interpreter
  on Wasm" analog);
* ``wevaled`` — the plain interpreter variant specialized on the program
  (context annotations only; registers stay in memory);
* ``wevaled_state`` — the intrinsics variant specialized (``+ locals
  opt``: registers virtualized into SSA).

Min is a guest of :mod:`repro.pipeline.host` like the others.  The two
things a guest supplies are here functions, not methods: its tier
entries (:func:`~repro.min.interp.min_tier_entry`) and the entry into a
program (``vm.call("min_interp", [PROGRAM_BASE, len, input])``); the
controller comes from :func:`~repro.pipeline.host.controller_for`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

from repro.core.specialize import SpecializeOptions
from repro.frontend import compile_source, interpreter_image
from repro.ir.instructions import MASK64, wrap_i64
from repro.min.interp import (
    PROGRAM_BASE,
    SPEC_SLOT_STATE,
    build_min_module,
    min_request,
    min_tier_entry,
)
from repro.min.isa import ARITY, MinProgram, NUM_REGISTERS, Opcode, assemble
from repro.pipeline.host import controller_for
from repro.vm import VM


class PyMinInterpreter:
    """Reference Min interpreter in pure Python (the "native" tier)."""

    def __init__(self, program: MinProgram):
        self.words = program.words

    def run(self, input_value: int = 0) -> int:
        words = self.words
        acc = wrap_i64(input_value)
        regs = [0] * NUM_REGISTERS
        pc = 0
        steps = 0
        while True:
            op = words[pc]
            pc += 1
            steps += 1
            if op == Opcode.LOAD_IMMEDIATE:
                acc = words[pc]
                pc += 1
            elif op == Opcode.STORE_REG:
                regs[words[pc]] = acc
                pc += 1
            elif op == Opcode.LOAD_REG:
                acc = regs[words[pc]]
                pc += 1
            elif op == Opcode.ADD:
                acc = (regs[words[pc]] + regs[words[pc + 1]]) & MASK64
                pc += 2
            elif op == Opcode.SUB:
                acc = (regs[words[pc]] - regs[words[pc + 1]]) & MASK64
                pc += 2
            elif op == Opcode.MUL:
                acc = (regs[words[pc]] * regs[words[pc + 1]]) & MASK64
                pc += 2
            elif op == Opcode.ADD_IMMEDIATE:
                acc = (acc + words[pc]) & MASK64
                pc += 1
            elif op == Opcode.JMPNZ:
                target = words[pc]
                pc += 1
                if acc != 0:
                    pc = target
            elif op == Opcode.JMP:
                pc = words[pc]
            elif op == Opcode.HALT:
                return acc
            else:
                raise ValueError(f"bad opcode {op} at pc {pc - 1}")


def sum_to_n_program(n: int) -> MinProgram:
    """The paper's benchmark: sum the integers from 0 to n.

    reg0 = counter (n..1), reg1 = running sum.
    """
    return assemble([
        ("LOAD_IMMEDIATE", n),
        ("STORE_REG", 0),
        ("LOAD_IMMEDIATE", 0),
        ("STORE_REG", 1),
        ("label", "loop"),
        ("ADD", 1, 0),          # acc = sum + counter
        ("STORE_REG", 1),
        ("LOAD_REG", 0),
        ("ADD_IMMEDIATE", -1),  # counter -= 1
        ("STORE_REG", 0),
        ("JMPNZ", "loop"),
        ("LOAD_REG", 1),
        ("HALT",),
    ])


# Direct mini-C version of the same computation: the "compiled" baseline.
SUM_COMPILED_SRC = """
u64 sum_compiled(u64 n) {
  u64 sum = 0;
  u64 counter = n;
  while (counter != 0) {
    sum = sum + counter;
    counter = counter - 1;
  }
  return sum;
}
"""


@dataclasses.dataclass
class ConfigResult:
    name: str
    result: int
    wall_seconds: float
    fuel: Optional[int]         # None for host (Python) configs
    runtime_loads: Optional[int] = None
    runtime_stores: Optional[int] = None


def _time(fn: Callable[[], int], repeats: int = 1):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def run_fig8_configs(n: int = 1000, repeats: int = 1,
                     backend: str = "vm") -> Dict[str, ConfigResult]:
    """Run all five Fig. 8 configurations on sum-to-n; returns per-config
    results keyed by configuration name.

    ``backend="py"`` additionally runs the two residual functions through
    the tier-2 Python backend (configs ``wevaled_py`` and
    ``wevaled_state_py``), whose fuel must be identical to the IR-VM
    runs — only the wall clock moves.  Both residuals are compiled as
    one :class:`~repro.pipeline.engine.CompilationEngine` batch.
    """
    program = sum_to_n_program(n)
    module = build_min_module(program)
    interpreter_image(SUM_COMPILED_SRC, compile_source).add_to_module(module)
    # AOT is "promote everything at startup" through the tiering
    # controller: both variants compile as one engine batch.  The second
    # entry's profile key is disambiguated by its slot (the harness never
    # attaches a profiling hook, so keys are only identity here).
    controller = controller_for(module, [
        min_tier_entry(program, use_intrinsics=False, name="min_wevaled"),
        dataclasses.replace(
            min_tier_entry(program, use_intrinsics=True,
                           name="min_wevaled_state"),
            key=SPEC_SLOT_STATE)],
        SpecializeOptions(backend=backend))
    wevaled_name, wevaled_state_name = controller.promote_all()
    compiled_fns = dict(controller.compiler.backend_functions)

    results: Dict[str, ConfigResult] = {}

    def vm_config(name: str, func: str, args: List[int],
                  use_backend: bool = False):
        holder = {}

        def go():
            vm = VM(module)
            if use_backend:
                vm.install_compiled(compiled_fns)
            holder["vm"] = vm
            return vm.call(func, args)

        result, wall = _time(go, repeats)
        vm = holder["vm"]
        results[name] = ConfigResult(name, result, wall, vm.stats.fuel,
                                     vm.stats.loads, vm.stats.stores)

    # Host-platform configs.
    py = PyMinInterpreter(program)
    result, wall = _time(lambda: py.run(0), repeats)
    results["py_interp"] = ConfigResult("py_interp", result, wall, None)

    # VM-platform configs.
    vm_config("compiled", "sum_compiled", [n])
    vm_config("vm_interp", "min_interp",
              [PROGRAM_BASE, len(program.words), 0])
    vm_config("wevaled", wevaled_name,
              [PROGRAM_BASE, len(program.words), 0])
    vm_config("wevaled_state", wevaled_state_name,
              [PROGRAM_BASE, len(program.words), 0])
    if backend == "py":
        vm_config("wevaled_py", wevaled_name,
                  [PROGRAM_BASE, len(program.words), 0], use_backend=True)
        vm_config("wevaled_state_py", wevaled_state_name,
                  [PROGRAM_BASE, len(program.words), 0], use_backend=True)

    expected = n * (n + 1) // 2
    for config in results.values():
        if config.result != expected:
            raise AssertionError(
                f"{config.name} computed {config.result}, expected "
                f"{expected}")
    return results


def make_tiered_min(program: MinProgram,
                    threshold: float = 1,
                    speculate: bool = False,
                    use_intrinsics: bool = True,
                    options: Optional[SpecializeOptions] = None,
                    **tiering):
    """The ``mode="tiered"`` entry point for Min.

    Returns ``(vm, controller)``: a VM whose calls to ``min_interp`` are
    profiled and promoted by the
    :class:`~repro.pipeline.tiering.TieringController` once they cross
    ``threshold`` (``float("inf")`` never promotes — pure tier 0;
    ``1`` promotes at the first call, reproducing the AOT execution).
    ``speculate=True`` additionally arms guarded value speculation on
    the ``input`` parameter; any other controller keyword
    (``compile_threshold``, ``inline``, ...) passes through.
    """
    module = build_min_module(program)
    controller = controller_for(
        module, [min_tier_entry(program, use_intrinsics,
                                speculate_input=speculate)],
        options, threshold=threshold, speculate=speculate, **tiering)
    vm = controller.attach(VM(module))
    return vm, controller
