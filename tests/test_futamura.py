"""Integration tests for the weval transform: the first Futamura
projection on a small accumulator interpreter (the paper's Fig. 6
scenario), including bytecode erasure, the two-backedge conditional
branch (S3.3's structural form), and semantic equivalence between
generic and specialized execution; and f64 constants through the
transform bit for bit."""

import itertools
import sys

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

from tests.helpers import (
    FLOAT_BIT_PATTERNS,
    block_params,
    build_module,
    compile_legs,
)

# Opcodes: 0=LOADI imm, 1=ADDI imm, 2=SUBI imm, 3=JMPNZ target, 4=HALT.
# JMPNZ is two backedges, each arm updating the context and continuing.
INTERP_SRC = """
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
      if (acc != 0) { pc = target; weval_update_context(pc); continue; }
      weval_update_context(pc);
      continue;
    }
    case 4: { return acc; }
    default: { abort(); }
    }
    weval_update_context(pc);
  }
  return 0;
}
"""

BASE = 0x1000
COUNTDOWN = [2, 1, 3, 0, 1, 42, 4]       # acc-=1 loop, then acc+=42, halt


def setup(code):
    module = build_module(INTERP_SRC)
    for i, word in enumerate(code):
        module.write_init_u64(BASE + i * 8, word)
    return module


def make_request(code, **kwargs):
    return SpecializationRequest(
        "interp",
        [SpecializedMemory(BASE, len(code) * 8),
         SpecializedConst(len(code)), Runtime()],
        **kwargs)


class TestFutamuraProjection:
    def test_equivalence_and_speedup(self):
        module = setup(COUNTDOWN)
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

    def test_generic_is_only_read(self):
        """The transform works on the module's own generic body and
        leaves it as it went in."""
        module = setup(COUNTDOWN)
        before = body_fingerprint(module.functions["interp"])
        specialize(module, make_request(COUNTDOWN))
        assert body_fingerprint(module.functions["interp"]) == before

    def test_bytecode_erasure(self):
        """The paper's definition: the specialized program must not load
        from the bytecode stream (S2.2)."""
        module = setup(COUNTDOWN)
        func = specialize(module, make_request(COUNTDOWN))
        module.add_function(func)
        vm = VM(module)
        assert vm.call(func.name, [BASE, len(COUNTDOWN), 17]) == 42
        assert vm.stats.loads == 0  # no bytecode loads survive

    def test_cfg_follows_bytecode_not_interpreter(self):
        """Fig. 6: the output CFG contains the *guest* loop."""
        module = setup(COUNTDOWN)
        func = specialize(module, make_request(COUNTDOWN))
        text = print_function(func)
        # The guest program's constants appear directly in the code.
        assert "iconst 42" in text
        # There is a loop: some block is jumped to from later in the text.
        assert len(func.blocks) < 40  # compact, not interpreter-sized

    def test_semantics_preserved_across_inputs(self):
        module = setup(COUNTDOWN)
        func = specialize(module, make_request(COUNTDOWN))
        module.add_function(func)
        for value in (1, 2, 7, 63):
            vm_a = VM(module)
            vm_b = VM(module)
            assert (vm_a.call("interp", [BASE, len(COUNTDOWN), value]) ==
                    vm_b.call(func.name, [BASE, len(COUNTDOWN), value]))


    def test_context_cap_shares_one_dynamic_copy(self, monkeypatch):
        """Past ``MAX_CONTEXTS`` distinct contexts every new edge goes to
        the one ``DYNAMIC`` context: the residual stays finite and
        computes what the generic interpreter does."""
        monkeypatch.setattr(sys.modules["repro.core.specialize"],
                            "MAX_CONTEXTS", 2)
        module = setup(COUNTDOWN)
        func = specialize(module, make_request(COUNTDOWN))
        verify_function(func, module)
        module.add_function(func)
        for value in (1, 5, 100):
            vm = VM(module)
            assert (vm.call(func.name, [BASE, len(COUNTDOWN), value])
                    == VM(module).call("interp",
                                       [BASE, len(COUNTDOWN), value]))
            # The shared copy no longer knows ``pc``: it reads bytecode.
            assert vm.stats.loads > 0

    def test_constant_condition_specializes_one_arm(self):
        """When the branch condition is known, only its taken arm's
        context is reached: the residual has no branch and never holds
        the other arm's code."""
        # LOADI 0; JMPNZ 7; ADDI 5; HALT; ADDI 900; HALT
        code = [0, 0, 3, 7, 1, 5, 4, 1, 900, 4]
        module = setup(code)
        func = specialize(module, make_request(code))
        module.add_function(func)
        text = print_function(func)
        assert "br_if" not in text and "900" not in text
        assert VM(module).call(func.name, [BASE, len(code), 33]) == 5

    def test_dynamic_condition_specializes_both_arms(self):
        """When the condition is known only at run time, each arm's
        ``update_context`` reaches its own context: the residual branches
        on ``acc`` and both arms run without reading bytecode."""
        # JMPNZ 5; ADDI 5; HALT; ADDI 900; HALT
        code = [3, 5, 1, 5, 4, 1, 900, 4]
        module = setup(code)
        func = specialize(module, make_request(code))
        module.add_function(func)
        assert "br_if" in print_function(func)
        for value, expect in ((0, 5), (1, 901)):
            vm = VM(module)
            assert vm.call(func.name, [BASE, len(code), value]) == expect
            assert vm.stats.loads == 0


class TestStraightLineProgram:
    def test_fully_folds(self):
        code = [0, 10, 1, 5, 1, 7, 4]  # LOADI 10; ADDI 5; ADDI 7; HALT
        module = setup(code)
        func = specialize(module, make_request(code))
        module.add_function(func)
        vm = VM(module)
        assert vm.call(func.name, [BASE, len(code), 0]) == 22
        # acc is a chain of constants: the entire computation folds and
        # the result is a single constant return.
        assert vm.stats.fuel <= 10


class TestRequestValidation:
    def test_unknown_function(self):
        module = setup(COUNTDOWN)
        with pytest.raises(SpecializeError, match="unknown function"):
            specialize(module, SpecializationRequest("nope", []))

    def test_arg_count_mismatch(self):
        module = setup(COUNTDOWN)
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
        module = setup(COUNTDOWN)
        minimal = specialize(module, make_request(
            COUNTDOWN, specialized_name="spec_min"),
            SpecializeOptions(opt_config="none"))
        naive = specialize(module, make_request(
            COUNTDOWN, specialized_name="spec_naive"),
            SpecializeOptions(ssa_mode="naive", opt_config="none"))
        assert block_params(naive) > block_params(minimal)

    def test_naive_mode_still_correct(self):
        module = setup(COUNTDOWN)
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
        module = setup(COUNTDOWN)
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


# ---------------------------------------------------------------------------
# A constant is its bit pattern.  Python's float ``==`` merges 0.0 with
# -0.0 and ``repr`` merges NaN payloads; the specializer must not, in
# its per-block constant cache, at a join, or around a loop.
# ---------------------------------------------------------------------------

def _three_way(module, name, args):
    """``name(*args)`` on the IR VM and on both emit legs: one result,
    which every leg must agree on."""
    got = {"vm": VM(module).call(name, list(args))}
    for leg, pyfunc in compile_legs(module.functions[name], module).items():
        vm = VM(module)
        vm.install_compiled({name: pyfunc})
        got[leg] = vm.call(name, list(args))
    assert len(set(got.values())) == 1, f"{name}{tuple(args)}: {got}"
    return got["vm"]


def _specialized_runs(src, name, calls, opt_config="default"):
    """``[(generic result, specialized result), ...]`` of ``name`` over
    ``calls``, its arguments all ``Runtime()``; the specialized function
    runs on the IR VM and both emit legs."""
    module = build_module(src, memory_size=4096)
    arity = len(module.functions[name].sig.params)
    func = specialize(module, SpecializationRequest(
        name, [Runtime()] * arity, specialized_name=name + "_spec"),
        SpecializeOptions(opt_config=opt_config))
    module.add_function(func)
    verify_module(module)
    return [(VM(module).call(name, list(args)),
             _three_way(module, func.name, args)) for args in calls]


# Two constants in one block: the block's constant cache must not hand
# the second the first's value.
BLOCK_CACHE_SRC = """
u64 k(u64 p) {
  storef64(p, ffrombits(0));
  storef64(p + 8, ffrombits(0x8000000000000000));
  return load64(p + 8);
}
"""

# Two constants meeting at a join: they must become a block parameter.
JOIN_SRC = """
u64 h(u64 c, u64 p) {
  f64 x = ffrombits(0);
  if (c) { x = ffrombits(0x8000000000000000); }
  storef64(p, x);
  return load64(p);
}
"""


def test_block_cache_keeps_signed_zeros_apart():
    assert _specialized_runs(BLOCK_CACHE_SRC, "k", [(64,)]) == [
        (0x8000000000000000, 0x8000000000000000)]


@pytest.mark.parametrize("opt_config", ["none", "default"])
def test_join_keeps_signed_zeros_apart(opt_config):
    assert _specialized_runs(JOIN_SRC, "h", [(0, 64), (1, 64)],
                             opt_config) == [
        (0, 0), (0x8000000000000000, 0x8000000000000000)]


_NANS = [b for b in FLOAT_BIT_PATTERNS if (b >> 52) & 0x7FF == 0x7FF
         and b & ((1 << 52) - 1)]
_ONE = 0x3FF0000000000000
# Every pair float ``==`` or ``repr`` confuses, and each pattern with 1.0.
BIT_PAIRS = ([(0, 0x8000000000000000)]
             + list(itertools.combinations(_NANS, 2))
             + [(bits, _ONE) for bits in FLOAT_BIT_PATTERNS])

# The shapes the pair travels through; each returns one pattern's bits,
# which one picked by its first argument.
BIT_SHAPES = {
    "straight": ("""
u64 s(u64 w, u64 p) {
  storef64(p, ffrombits(%(a)s));
  storef64(p + 8, ffrombits(%(b)s));
  return load64(p + w * 8);
}
""", [(0, 64), (1, 64)]),
    "join": ("""
u64 s(u64 c, u64 p) {
  f64 x = ffrombits(%(a)s);
  if (c) { x = ffrombits(%(b)s); }
  storef64(p, x);
  return load64(p);
}
""", [(0, 64), (1, 64)]),
    "loop": ("""
u64 s(u64 n, u64 p) {
  f64 x = ffrombits(%(a)s);
  f64 y = ffrombits(%(b)s);
  while (n) { f64 t = x; x = y; y = t; n = n - 1; }
  storef64(p, x);
  return load64(p);
}
""", [(0, 64), (1, 64), (2, 64), (3, 64)]),
}


@pytest.mark.parametrize("shape", sorted(BIT_SHAPES))
@pytest.mark.parametrize("a,b", BIT_PAIRS,
                         ids=[f"{a:#x}-{b:#x}" for a, b in BIT_PAIRS])
def test_bit_pattern_pairs_through_the_specializer(shape, a, b):
    template, calls = BIT_SHAPES[shape]
    src = template % {"a": hex(a), "b": hex(b)}
    for opt_config in ("none", "default"):
        runs = _specialized_runs(src, "s", calls, opt_config)
        assert {generic for generic, _ in runs} == {a, b}
        for args, (generic, specialized) in zip(calls, runs):
            assert specialized == generic, (
                f"{shape} {opt_config} s{args}: generic {generic:#x}, "
                f"specialized {specialized:#x}")
