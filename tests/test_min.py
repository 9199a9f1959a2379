"""Tests for the Min case study (S5)."""

import pytest

from repro.ir.instructions import wrap_i64
from repro.min import (
    PROGRAM_BASE,
    PyMinInterpreter,
    assemble,
    build_min_module,
    specialize_min,
    sum_to_n_program,
)
from repro.min.isa import ARITY, MinProgram, Opcode, validate
from repro.vm import VM

from tests.test_paper_figures import fig8_runs


class TestAssembler:
    def test_labels_resolve(self):
        program = assemble([
            ("label", "start"),
            ("ADD_IMMEDIATE", -1),
            ("JMPNZ", "start"),
            ("HALT",),
        ])
        assert program.words == [6, wrap_i64(-1), 7, 0, 9]
        assert program.labels == {"start": 0}

    def test_duplicate_label(self):
        with pytest.raises(ValueError, match="duplicate label"):
            assemble([("label", "x"), ("label", "x"), ("HALT",)])

    def test_undefined_label(self):
        with pytest.raises(ValueError, match="undefined label"):
            assemble([("JMP", "nowhere")])

    def test_operand_arity(self):
        with pytest.raises(ValueError, match="expects"):
            assemble([("ADD", 1)])

    def test_validate_accepts_good_program(self):
        validate(sum_to_n_program(5))

    def test_validate_rejects_bad_opcode(self):
        with pytest.raises(ValueError, match="bad opcode"):
            validate(MinProgram([99], {}))

    def test_validate_rejects_bad_register(self):
        with pytest.raises(ValueError, match="bad register"):
            validate(MinProgram([int(Opcode.STORE_REG), 999, 9], {}))

    def test_validate_rejects_misaligned_branch(self):
        # JMP into the middle of a LOAD_IMMEDIATE.
        with pytest.raises(ValueError, match="boundary"):
            validate(MinProgram([int(Opcode.JMP), 3,
                                 int(Opcode.LOAD_IMMEDIATE), 7,
                                 int(Opcode.HALT)], {}))


class TestInterpreterEquivalence:
    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_python_vs_vm_interpreter(self, n):
        program = sum_to_n_program(n)
        expected = PyMinInterpreter(program).run(0)
        module = build_min_module(program)
        vm = VM(module)
        got = vm.call("min_interp", [PROGRAM_BASE, len(program.words), 0])
        assert got == expected == n * (n + 1) // 2

    @pytest.mark.parametrize("use_intrinsics", [False, True])
    def test_specialized_equivalence(self, use_intrinsics):
        program = sum_to_n_program(30)
        module = build_min_module(program)
        func = specialize_min(module, program, use_intrinsics)
        from repro.ir import verify_module
        verify_module(module)
        vm = VM(module)
        got = vm.call(func.name, [PROGRAM_BASE, len(program.words), 0])
        assert got == 30 * 31 // 2

    def test_state_opt_erases_register_traffic(self):
        """The paper's S5 claim: register intrinsics remove the loads and
        stores entirely (the whole loop lives in SSA values)."""
        program = sum_to_n_program(100)
        module = build_min_module(program)
        func = specialize_min(module, program, use_intrinsics=True)
        vm = VM(module)
        vm.call(func.name, [PROGRAM_BASE, len(program.words), 0])
        assert vm.stats.loads == 0
        assert vm.stats.stores == 0

    def test_wrapping_arithmetic_matches(self):
        program = assemble([
            ("LOAD_IMMEDIATE", (1 << 64) - 3),
            ("STORE_REG", 0),
            ("LOAD_REG", 0),
            ("ADD_IMMEDIATE", 10),
            ("HALT",),
        ])
        expected = PyMinInterpreter(program).run(0)
        module = build_min_module(program)
        func = specialize_min(module, program, use_intrinsics=True)
        vm = VM(module)
        got = vm.call(func.name, [PROGRAM_BASE, len(program.words), 0])
        assert got == expected == 7


class TestFig8Harness:
    def test_all_configs_agree(self):
        results = fig8_runs(n=50, backend="vm")
        values = {result for result, _ in results.values()}
        assert values == {50 * 51 // 2}
        assert set(results) == {"py_interp", "compiled", "vm_interp",
                                "wevaled", "wevaled_state"}

    def test_speedup_ordering(self):
        results = fig8_runs(n=300, backend="vm")
        fuel = {name: f for name, (_, f) in results.items()}
        assert fuel["wevaled"] < fuel["vm_interp"]
        assert fuel["wevaled_state"] < fuel["wevaled"]
