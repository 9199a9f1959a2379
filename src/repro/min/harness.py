"""Min's single-program flows: the reference interpreter, the paper's
sum-to-n program and its directly written baseline, and the tiered
entry point.

* :class:`PyMinInterpreter` — Min in pure Python (the "native
  interpreter" of Fig. 8), the oracle the tests and the ledger check
  VM runs against;
* :func:`sum_to_n_program` and :data:`SUM_COMPILED_SRC` — the program
  Fig. 8 runs, and the same computation written in mini-C (its
  ``compiled`` row); ``tests/test_paper_figures.py`` draws the figure;
* :func:`make_tiered_min` — ``mode="tiered"`` for Min.

Min is a guest of :mod:`repro.pipeline.host` like the others.  The two
things a guest supplies are here functions, not methods: its tier
entries (:func:`~repro.min.interp.min_tier_entry`) and the entry into a
program (``vm.call("min_interp", [PROGRAM_BASE, len, input])``); the
controller comes from :func:`~repro.pipeline.host.controller_for`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.specialize import SpecializeOptions
from repro.ir.instructions import MASK64, wrap_i64
from repro.min.interp import build_min_module, min_tier_entry
from repro.min.isa import MinProgram, NUM_REGISTERS, Opcode, assemble
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
        while True:
            op = words[pc]
            pc += 1
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
