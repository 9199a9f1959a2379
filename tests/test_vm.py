"""Unit tests for the VM: arithmetic semantics, memory, control, calls."""

import math
import sys

import pytest

from repro.ir import I64, F64, Module, parse_function
from repro.ir.instructions import wrap_i64
from repro.vm import VM, VMTrap, OutOfFuel

from tests.helpers import build_module, run, run_with_stats


def eval_binop(op: str, a, b, ty=I64):
    result = I64 if op[0] == "i" or op in ("feq", "fne", "flt", "fle",
                                            "fgt", "fge") else F64
    module = Module(memory_size=64)
    module.add_function(parse_function("\n".join((
        f"func @f(v0: {ty}, v1: {ty}) -> {result} {{",
        "block0:",
        f"  v2 = {op} v0, v1",
        "  return v2",
        "}"))))
    return VM(module).call("f", [a, b])


class TestIntegerArithmetic:
    def test_wrapping_add(self):
        assert eval_binop("iadd", (1 << 64) - 1, 2) == 1

    def test_wrapping_mul(self):
        assert eval_binop("imul", 1 << 63, 2) == 0

    def test_signed_division_truncates_toward_zero(self):
        assert eval_binop("idiv_s", wrap_i64(-7), 2) == wrap_i64(-3)
        assert eval_binop("idiv_s", 7, wrap_i64(-2)) == wrap_i64(-3)

    def test_unsigned_division(self):
        assert eval_binop("idiv_u", wrap_i64(-1), 2) == (1 << 63) - 1

    def test_signed_remainder_sign_follows_dividend(self):
        assert eval_binop("irem_s", wrap_i64(-7), 2) == wrap_i64(-1)
        assert eval_binop("irem_s", 7, wrap_i64(-2)) == 1

    def test_divide_by_zero_traps(self):
        with pytest.raises(VMTrap, match="divide by zero"):
            eval_binop("idiv_u", 1, 0)
        with pytest.raises(VMTrap, match="remainder"):
            eval_binop("irem_s", 1, 0)

    def test_shift_masks_to_six_bits(self):
        assert eval_binop("ishl", 1, 64) == 1
        assert eval_binop("ishl", 1, 65) == 2

    def test_arithmetic_shift_right(self):
        assert eval_binop("ishr_s", wrap_i64(-8), 1) == wrap_i64(-4)
        assert eval_binop("ishr_u", wrap_i64(-8), 1) == (wrap_i64(-8) >> 1)

    def test_signed_comparisons(self):
        assert eval_binop("ilt_s", wrap_i64(-1), 0) == 1
        assert eval_binop("ilt_u", wrap_i64(-1), 0) == 0
        assert eval_binop("ige_s", 5, 5) == 1


class TestFloatArithmetic:
    def test_basic_ops(self):
        assert eval_binop("fadd", 1.5, 2.25, F64) == 3.75
        assert eval_binop("fmul", 3.0, -2.0, F64) == -6.0

    def test_division_by_zero_is_inf(self):
        assert eval_binop("fdiv", 1.0, 0.0, F64) == math.inf
        assert math.isnan(eval_binop("fdiv", 0.0, 0.0, F64))

    def test_comparisons(self):
        assert eval_binop("flt", 1.0, 2.0, F64) == 1
        assert eval_binop("fge", 1.0, 2.0, F64) == 0

    def test_nan_compares_false(self):
        assert eval_binop("feq", math.nan, math.nan, F64) == 0
        assert eval_binop("fne", math.nan, math.nan, F64) == 1


class TestConversionsAndBits:
    def test_bitcast_roundtrip(self):
        src = """
        u64 roundtrip(f64 x) { return fbits(x); }
        f64 back(u64 b) { return ffrombits(b); }
        """
        bits = run(src, "roundtrip", [1.5])
        assert isinstance(bits, int)
        assert run(src, "back", [bits]) == 1.5

    def test_itof_is_signed(self):
        assert run("f64 f(u64 x) { return itof(x); }", "f",
                   [wrap_i64(-3)]) == -3.0

    def test_ftoi_truncates(self):
        assert run("u64 f(f64 x) { return ftoi(x); }", "f", [2.9]) == 2
        assert run("u64 f(f64 x) { return ftoi(x); }", "f",
                   [-2.9]) == wrap_i64(-2)

    def test_ftoi_nan_traps(self):
        with pytest.raises(VMTrap):
            run("u64 f(f64 x) { return ftoi(x); }", "f", [math.nan])


class TestMemory:
    def test_load_store_widths(self):
        src = """
        u64 f() {
          store64(0, 0x1122334455667788);
          u64 lo32 = load32u(0);
          u64 hi8 = load8u(7);
          u64 s8 = load8s(6);
          return lo32 + hi8 + s8;
        }
        """
        got = run(src, "f")
        expect = (0x55667788 + 0x11 + 0x22) & ((1 << 64) - 1)
        assert got == expect

    def test_signed_narrow_loads(self):
        src = """
        u64 f() {
          store8(0, 0xFF);
          return load8s(0);
        }
        """
        assert run(src, "f") == wrap_i64(-1)

    def test_float_memory(self):
        src = """
        f64 f() {
          storef64(16, 2.5);
          return loadf64(16) * 2.0;
        }
        """
        assert run(src, "f") == 5.0

    def test_out_of_bounds_traps(self):
        with pytest.raises(VMTrap, match="oob"):
            run("u64 f() { return load64(1000000); }", "f",
                memory_size=4096)


class TestCallsAndTable:
    def test_host_import(self):
        outputs = []

        def record(vm, x):
            outputs.append(x)
            return x * 2

        src = """
        extern u64 double_it(u64 x);
        u64 f(u64 x) { return double_it(x) + 1; }
        """
        assert run(src, "f", [21], externs={"double_it": record}) == 43
        assert outputs == [21]

    def test_indirect_call(self):
        src = """
        u64 add1(u64 x) { return x + 1; }
        u64 call_it(u64 idx, u64 x) { return icall1(idx, x); }
        """
        from tests.helpers import build_module
        module = build_module(src)
        idx = module.add_table_entry("add1")
        vm = VM(module)
        assert vm.call("call_it", [idx, 9]) == 10

    def test_indirect_call_null_traps(self):
        src = "u64 f() { return icall0(0); }"
        with pytest.raises(VMTrap, match="table"):
            run(src, "f")

    def test_call_stack_exhaustion_traps(self):
        src = "u64 f(u64 x) { return f(x); }"
        with pytest.raises(VMTrap, match="stack"):
            run(src, "f", [1])

    def test_a_vm_leaves_the_recursion_limit_alone(self):
        """The host's recursion limit is raised once, when the VM's
        module is imported: making a VM, and running a guest down to its
        stack-exhaustion trap at ``_max_call_depth``, change nothing."""
        module = build_module(
            "u64 f(u64 x) { if (x) { return f(x - 1) + 1; } return 0; }")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit - 1)
        try:
            vm = VM(module)
            assert sys.getrecursionlimit() == limit - 1
        finally:
            sys.setrecursionlimit(limit)
        depth = vm._max_call_depth
        assert vm.call("f", [depth - 1]) == depth - 1
        with pytest.raises(VMTrap, match="call stack exhausted in f"):
            vm.call("f", [depth])
        assert vm._call_depth == 0
        assert sys.getrecursionlimit() == limit


class TestFuelAndStats:
    def test_fuel_counts_instructions(self):
        src = "u64 f(u64 n) { u64 a = 0; for (u64 i = 0; i < n; i++) { a += i; } return a; }"
        _, stats10 = run_with_stats(src, "f", [10])
        _, stats100 = run_with_stats(src, "f", [100])
        assert stats100.fuel > stats10.fuel * 5

    def test_fuel_limit(self):
        src = "u64 f() { u64 a = 0; while (1) { a += 1; } return a; }"
        from tests.helpers import build_module
        module = build_module(src)
        vm = VM(module, fuel_limit=10_000)
        with pytest.raises(OutOfFuel):
            vm.call("f", [])

    def test_load_store_counters(self):
        src = "u64 f() { store64(0, 7); store64(8, 8); return load64(0); }"
        _, stats = run_with_stats(src, "f")
        assert stats.stores == 2
        assert stats.loads == 1


class TestBackedgeProfiling:
    """Tier-0 loop profiling must track real retreating edges, not the
    accident of block-id numbering."""

    @staticmethod
    def _run_counting(func, args):
        module = Module(memory_size=4096)
        module.add_function(func)
        vm = VM(module)
        vm.count_backedges = True
        result = vm.call(func.name, args)
        return result, vm.stats.backedges

    def test_forward_jump_to_lower_id_is_not_a_backedge(self):
        # join is created before detour, so the forward edge
        # detour -> join lands on a *lower* block id.  The old
        # `target <= source` heuristic counted it as loop heat.
        func = parse_function("""\
func @shuffled(v0: i64) -> i64 {
block0:
  jump block2
block1(v1: i64):
  return v1
block2:
  v2 = iconst 1
  v3 = iadd v0, v2
  jump block1(v3)
}""")
        result, backedges = self._run_counting(func, [41])
        assert result == 42
        assert backedges == 0

    def test_loop_with_high_id_header_still_counts(self):
        # The header is created last (highest id), so the real backedge
        # body -> header jumps to a *higher* id — invisible to the old
        # heuristic, exactly one count per iteration for the new one.
        func = parse_function("""\
func @loop_hi(v0: i64) -> i64 {
block0:
  v4 = iconst 0
  jump block3(v4, v4)
block1(v1: i64):
  return v1
block2:
  v6 = iadd v3, v2
  v7 = iconst 1
  v8 = iadd v2, v7
  jump block3(v8, v6)
block3(v2: i64, v3: i64):
  v5 = ilt_u v2, v0
  br_if v5, block2, block1(v3)
}""")
        result, backedges = self._run_counting(func, [10])
        assert result == sum(range(10))
        assert backedges == 10


class TestIntrinsicPolyfills:
    def test_context_intrinsics_are_noops_dynamically(self):
        src = """
        u64 f(u64 x) {
          weval_push_context(x);
          weval_update_context(x + 1);
          u64 y = weval_assert_const(x);
          weval_pop_context();
          return y;
        }
        """
        assert run(src, "f", [5]) == 5

    def test_state_intrinsics_fail_in_generic_code(self):
        src = "u64 f() { return weval_read_reg(0); }"
        with pytest.raises(RuntimeError, match="state intrinsic"):
            run(src, "f")
