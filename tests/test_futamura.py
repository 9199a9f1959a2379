"""Integration tests for the weval transform: the first Futamura
projection on a small accumulator interpreter (the paper's Fig. 6
scenario), including bytecode erasure, both conditional-branch styles,
and semantic equivalence between generic and specialized execution."""

import pytest

from repro.core import (
    Runtime,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
    specialize,
)
from repro.core.cache import body_fingerprint
from repro.core.specialize import SpecializeError, SpecializeOptions
from repro.ir import Module, print_function, verify_function, verify_module
from repro.vm import VM

from tests.helpers import build_module

# Opcodes: 0=LOADI imm, 1=ADDI imm, 2=SUBI imm, 3=JMPNZ target, 4=HALT.
INTERP_SRC_TEMPLATE = """
u64 interp(u64 program, u64 proglen, u64 input) {
  u64 pc = 0;
  u64 acc = input;
  weval_push_context(pc);
  while (1) {
    u64 op = load64(program + pc * 8);
    pc = pc + 1;
    switch (op) {
    case 0: { acc = load64(program + pc * 8); pc = pc + 1; break; }
    case 1: { acc = acc + load64(program + pc * 8); pc = pc + 1; break; }
    case 2: { acc = acc - load64(program + pc * 8); pc = pc + 1; break; }
    case 3: {
      u64 target = load64(program + pc * 8);
      pc = pc + 1;
      %(branch)s
    }
    case 4: { return acc; }
    default: { abort(); }
    }
    weval_update_context(pc);
  }
  return 0;
}
"""

TWO_BACKEDGE = """
      if (acc != 0) { pc = target; weval_update_context(pc); continue; }
      weval_update_context(pc);
      continue;
"""

THE_TRICK = """
      pc = select(acc != 0, target, pc);
      pc = weval_specialized_value(pc, 0, proglen - 1);
      break;
"""

BASE = 0x1000
COUNTDOWN = [2, 1, 3, 0, 1, 42, 4]       # acc-=1 loop, then acc+=42, halt


def setup(branch_style, code):
    module = build_module(INTERP_SRC_TEMPLATE % {"branch": branch_style})
    for i, word in enumerate(code):
        module.write_init_u64(BASE + i * 8, word)
    return module


def make_request(code, **kwargs):
    return SpecializationRequest(
        "interp",
        [SpecializedMemory(BASE, len(code) * 8),
         SpecializedConst(len(code)), Runtime()],
        **kwargs)


@pytest.mark.parametrize("style,stylename",
                         [(TWO_BACKEDGE, "two_backedge"),
                          (THE_TRICK, "the_trick")])
class TestFutamuraProjection:
    def test_equivalence_and_speedup(self, style, stylename):
        module = setup(style, COUNTDOWN)
        vm = VM(module)
        expect = vm.call("interp", [BASE, len(COUNTDOWN), 100])
        assert expect == 42
        generic_fuel = vm.stats.fuel

        func = specialize(module, make_request(COUNTDOWN))
        module.add_function(func)
        verify_module(module)

        vm2 = VM(module)
        got = vm2.call(func.name, [BASE, len(COUNTDOWN), 100])
        assert got == expect
        assert vm2.stats.fuel < generic_fuel / 2  # ≥2x dispatch removal

    def test_generic_is_only_read(self, style, stylename):
        """The transform works on the module's own generic body when it
        has nothing to split (two_backedge) and on a clone when it has
        (the_trick); either way the generic comes out as it went in."""
        module = setup(style, COUNTDOWN)
        before = body_fingerprint(module.functions["interp"])
        specialize(module, make_request(COUNTDOWN))
        assert body_fingerprint(module.functions["interp"]) == before

    def test_bytecode_erasure(self, style, stylename):
        """The paper's definition: the specialized program must not load
        from the bytecode stream (S2.2)."""
        module = setup(style, COUNTDOWN)
        func = specialize(module, make_request(COUNTDOWN))
        module.add_function(func)
        vm = VM(module)
        assert vm.call(func.name, [BASE, len(COUNTDOWN), 17]) == 42
        assert vm.stats.loads == 0  # no bytecode loads survive

    def test_cfg_follows_bytecode_not_interpreter(self, style, stylename):
        """Fig. 6: the output CFG contains the *guest* loop."""
        module = setup(style, COUNTDOWN)
        func = specialize(module, make_request(COUNTDOWN))
        text = print_function(func)
        # The guest program's constants appear directly in the code.
        assert "iconst 42" in text
        # There is a loop: some block is jumped to from later in the text.
        assert func.num_blocks() < 40  # compact, not interpreter-sized

    def test_semantics_preserved_across_inputs(self, style, stylename):
        module = setup(style, COUNTDOWN)
        func = specialize(module, make_request(COUNTDOWN))
        module.add_function(func)
        for value in (1, 2, 7, 63):
            vm_a = VM(module)
            vm_b = VM(module)
            assert (vm_a.call("interp", [BASE, len(COUNTDOWN), value]) ==
                    vm_b.call(func.name, [BASE, len(COUNTDOWN), value]))


class TestStraightLineProgram:
    def test_fully_folds(self):
        code = [0, 10, 1, 5, 1, 7, 4]  # LOADI 10; ADDI 5; ADDI 7; HALT
        module = setup(TWO_BACKEDGE, code)
        func = specialize(module, make_request(code))
        module.add_function(func)
        vm = VM(module)
        assert vm.call(func.name, [BASE, len(code), 0]) == 22
        # acc is a chain of constants: the entire computation folds and
        # the result is a single constant return.
        assert vm.stats.fuel <= 10


class TestRequestValidation:
    def test_unknown_function(self):
        module = setup(TWO_BACKEDGE, COUNTDOWN)
        with pytest.raises(SpecializeError, match="unknown function"):
            specialize(module, SpecializationRequest("nope", []))

    def test_arg_count_mismatch(self):
        module = setup(TWO_BACKEDGE, COUNTDOWN)
        with pytest.raises(SpecializeError, match="arg modes"):
            specialize(module, SpecializationRequest("interp", [Runtime()]))

    def test_request_naming(self):
        req = make_request(COUNTDOWN)
        assert req.name().startswith("interp.spec.")
        named = make_request(COUNTDOWN, specialized_name="custom")
        assert named.name() == "custom"

    def test_bad_ssa_mode(self):
        with pytest.raises(ValueError):
            SpecializeOptions(ssa_mode="bogus")


class TestSsaModes:
    def test_naive_mode_has_more_params(self):
        """The S3.4 ablation: naive max-SSA creates far more block
        parameters than the minimal strategy."""
        module = setup(TWO_BACKEDGE, COUNTDOWN)
        minimal = specialize(module, make_request(
            COUNTDOWN, specialized_name="spec_min"),
            SpecializeOptions(opt_config="none"))
        naive = specialize(module, make_request(
            COUNTDOWN, specialized_name="spec_naive"),
            SpecializeOptions(ssa_mode="naive", opt_config="none"))
        assert naive.total_block_params() > minimal.total_block_params()

    def test_naive_mode_still_correct(self):
        module = setup(TWO_BACKEDGE, COUNTDOWN)
        func = specialize(module, make_request(COUNTDOWN),
                          SpecializeOptions(ssa_mode="naive"))
        module.add_function(func)
        verify_module(module)
        vm = VM(module)
        assert vm.call(func.name, [BASE, len(COUNTDOWN), 9]) == 42


class TestAssertConst:
    def test_assert_const_passes_for_constant(self):
        src = """
        u64 f(u64 x) { return weval_assert_const(x) + 1; }
        """
        module = build_module(src)
        func = specialize(module, SpecializationRequest(
            "f", [SpecializedConst(41)]))
        module.add_function(func)
        vm = VM(module)
        assert vm.call(func.name, [0]) == 42

    def test_assert_const_fails_for_runtime(self):
        src = "u64 f(u64 x) { return weval_assert_const(x); }"
        module = build_module(src)
        with pytest.raises(SpecializeError, match="assert_const"):
            specialize(module, SpecializationRequest("f", [Runtime()]))


class TestGuestLoopsRemainLoops:
    def test_loop_fuel_scales_but_code_is_constant_size(self):
        module = setup(TWO_BACKEDGE, COUNTDOWN)
        func = specialize(module, make_request(COUNTDOWN))
        module.add_function(func)
        fuels = []
        for n in (10, 100):
            vm = VM(module)
            vm.call(func.name, [BASE, len(COUNTDOWN), n])
            fuels.append(vm.stats.fuel)
        # Fuel scales with iterations: the guest loop is a real loop in
        # the specialized code, not unrolled per-input.
        assert fuels[1] > fuels[0] * 5
