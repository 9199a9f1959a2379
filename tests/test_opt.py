"""Unit tests for the optimizer passes, and the generated mid-end
oracle: ``optimize_function`` on straight-line and one-diamond functions
over every pure op, run on edge operands, computes the bits (or traps
with the text) the unoptimized function does."""

import math

import pytest
from hypothesis import example, given, note, settings, strategies as st

from repro.core import Runtime, SpecializationRequest, specialize
from repro.core.specialize import SpecializeOptions
from repro.frontend import compile_source
from repro.ir import (
    F64,
    I64,
    Module,
    parse_function,
    print_function,
    verify_function,
)
from repro.ir.instructions import MASK64, OPCODES, BlockCall, Jump, Ret
from repro.ir.printer import float_text
from repro.ir.semantics import (
    LOADS,
    PURE_EXPRS,
    PURE_FNS,
    STORES,
    _bits_ftoi,
    _bits_itof,
)
from repro.opt import (
    PASSES,
    gvn,
    eliminate_dead_code,
    fold_branches,
    forward_loads,
    global_value_numbering,
    optimize_function,
    prune_block_params,
    simplify_cfg,
    thread_jumps,
)
from repro.vm import VM, OutOfFuel, VMTrap

from tests.helpers import (
    COMPARE_OPS,
    FLOAT_BIT_PATTERNS,
    IRText,
    assert_text_round_trips,
    clone,
    target,
)


def compiled_func(src, name):
    module = Module(memory_size=4096)
    compile_source(src).add_to_module(module)
    return module, module.functions[name]


def ops(func):
    """The opcodes of ``func``'s instructions, block by block."""
    return [instr.op for block in func.blocks.values()
            for instr in block.instrs]


def _rows():
    """``(op, arg_types, result)`` for every pure row, ``select`` at
    both of its value types."""
    for op in sorted(PURE_EXPRS):
        if op == "select":
            for ty in (I64, F64):
                yield op, (I64, ty, ty), ty
        else:
            yield op, OPCODES[op].arg_types, OPCODES[op].result


ROWS = list(_rows())
TRAPPING_OPS = sorted(op for op in PURE_EXPRS if OPCODES[op].traps)
# Constant operands by type and position: ``FOLDS`` ones every row
# computes a value on, ``TRAPS`` ones every trapping row traps on.
FOLDS = {I64: (7, 3, 1), F64: (2.5, -1.5, 0.5)}
TRAPS = {I64: (7, 0), F64: (math.nan,)}


def row_id(op, arg_types, result):
    return f"{op}-{result}" if op == "select" else op


def one_op_text(op, arg_types, result, operands):
    """``f()``: ``op`` over constants drawn from ``operands``, its
    result returned."""
    ir = IRText(f"func @f() -> {result} {{", 0)
    args = []
    for position, ty in enumerate(arg_types):
        value = operands[ty][position]
        args.append(ir.const(value) if ty is I64
                    else ir.define(f"fconst {float_text(value)}"))
    value = ir.define(f"{op} {', '.join(f'v{a}' for a in args)}")
    ir.line(f"return v{value}")
    return ir.text()


def _result_bits(func):
    """What ``f()`` returns, a float as its bits."""
    kind, value = _outcome(func, [])
    assert kind == "value", value
    return _bits_ftoi(value) if type(value) is float else value


class TestFold:
    """GVN's walk folds pure ops over constants in place; simplify-cfg
    folds a branch on a constant."""

    def test_folds_constant_chain(self):
        module, func = compiled_func(
            "u64 f() { return (2 + 3) * 4 - 1; }", "f")
        assert {"iadd", "imul", "isub"} <= set(ops(func))
        global_value_numbering(func)
        assert set(ops(func)) == {"iconst"}
        verify_function(func)
        assert VM(module).call("f", []) == 19

    def test_folds_constant_branch(self):
        module, func = compiled_func(
            "u64 f() { if (1 < 2) { return 10; } return 20; }", "f")
        global_value_numbering(func)
        simplify_cfg(func)
        assert not [block for block in func.blocks.values()
                    if not isinstance(block.terminator, (Jump, Ret))]
        verify_function(func)
        assert VM(module).call("f", []) == 10

    def test_no_fold_of_trapping_ops(self):
        module, func = compiled_func("u64 f() { return 1 / 0; }", "f")
        before = ops(func)
        global_value_numbering(func)
        assert ops(func) == before  # division by zero left alone
        with pytest.raises(VMTrap, match="integer divide by zero"):
            VM(module).call("f", [])

    @pytest.mark.parametrize("op, arg_types, result", ROWS,
                             ids=[row_id(*row) for row in ROWS])
    def test_gvn_folds_each_row_like_the_vm(self, op, arg_types, result):
        """Over constants every row folds away to one ``iconst`` /
        ``fconst`` of its result type, holding the bits the VM
        computes."""
        original = parse_function(one_op_text(op, arg_types, result, FOLDS))
        folded = clone(original)
        assert global_value_numbering(folded) >= 1
        eliminate_dead_code(folded)
        verify_function(folded)
        assert ops(folded) == ["iconst" if result is I64 else "fconst"]
        assert _result_bits(folded) == _result_bits(original)

    @pytest.mark.parametrize("op", TRAPPING_OPS)
    def test_gvn_leaves_a_trapping_row_alone(self, op):
        """Over constants it traps on, a row stays to trap at run
        time."""
        info = OPCODES[op]
        original = parse_function(
            one_op_text(op, info.arg_types, info.result, TRAPS))
        kept = clone(original)
        global_value_numbering(kept)
        verify_function(kept)
        assert ops(kept) == ops(original)
        outcome = _outcome(kept, [])
        assert outcome[0] == "trap" and outcome == _outcome(original, [])


class TestDce:
    def test_removes_unused_pure_ops(self):
        # v1 and v2 are dead.
        func = parse_function("""\
func @f(v0: i64) -> i64 {
block0:
  v1 = iconst 1
  v2 = iadd v0, v1
  return v0
}""")
        removed = eliminate_dead_code(func)
        assert removed == 2  # the iconst and the iadd
        verify_function(func)

    def test_keeps_effects(self):
        module, func = compiled_func(
            "u64 f() { store64(0, 7); return 1; }", "f")
        eliminate_dead_code(func)
        assert any(i.op == "store64" for b in func.blocks.values()
                   for i in b.instrs)

    def test_keeps_a_dead_op_that_can_trap(self):
        """``10 / x`` is dead, but it traps at ``x = 0``: so does the
        residual ``specialize()`` makes of ``f``."""
        module, _ = compiled_func(
            "u64 f(u64 x) { u64 y = 10 / x; return 1; }", "f")
        func = specialize(module, SpecializationRequest("f", [Runtime()]))
        module.add_function(func)
        for name in ("f", func.name):
            with pytest.raises(VMTrap, match="integer divide by zero"):
                VM(module).call(name, [0])
            assert VM(module).call(name, [5]) == 1

    def test_drops_a_dead_op_its_operands_keep_from_trapping(self):
        # v2 divides by a nonzero constant, v4 converts a finite one;
        # v5 divides by v0 and v7 converts a NaN, so they stay.
        func = parse_function("""\
func @f(v0: i64) -> i64 {
block0:
  v1 = iconst 3
  v2 = idiv_s v0, v1
  v3 = fconst 2.5
  v4 = ftoi v3
  v5 = irem_u v1, v0
  v6 = fconst nan:0x7ff8000000000000
  v7 = ftoi v6
  return v0
}""")
        assert eliminate_dead_code(func) == 3  # v2, v4, then v3
        assert [i.op for i in func.entry_block().instrs] == [
            "iconst", "irem_u", "fconst", "ftoi"]


class TestSimplifyCfg:
    @pytest.mark.parametrize("branch, selector, taken", [
        ("br_if v0, block1, block2", 5, 1),
        ("br_if v0, block1, block2", 0, 2),
        ("br_table v0, [block1, block2], default block3", 1, 2),
        ("br_table v0, [block1, block2], default block3", 2, 3),
    ], ids=["br_if-true", "br_if-false", "br_table-case",
            "br_table-default"])
    def test_fold_branches_on_a_constant_selector(self, branch, selector,
                                                  taken):
        """A constant selector decides its branch: the head jumps to
        the arm the VM would take."""
        func = parse_function(f"""\
func @f() -> i64 {{
block0:
  v0 = iconst {selector}
  {branch}
block1:
  v1 = iconst 10
  return v1
block2:
  v2 = iconst 20
  return v2
block3:
  v3 = iconst 30
  return v3
}}""")
        assert _outcome(func, []) == ("value", 10 * taken)
        assert fold_branches(func) == 1
        assert func.entry_block().terminator == Jump(BlockCall(taken))
        verify_function(func)
        assert _outcome(func, []) == ("value", 10 * taken)

    def test_merges_straightline_chains(self):
        module, func = compiled_func("""
u64 f(u64 x) {
  u64 a = x + 1;
  u64 b = a * 2;
  return b - 3;
}
""", "f")
        optimize_function(func)
        verify_function(func)
        assert len(func.blocks) == 1
        assert VM(module).call("f", [10]) == 19

    def test_preserves_semantics_on_loops(self):
        src = """
u64 f(u64 n) {
  u64 acc = 0;
  for (u64 i = 0; i < n; i++) { acc += i * i; }
  return acc;
}
"""
        module, func = compiled_func(src, "f")
        before = VM(module).call("f", [20])
        optimize_function(func)
        verify_function(func)
        module2 = Module(memory_size=4096)
        compile_source(src).add_to_module(module2)
        assert VM(module).call("f", [20]) == before


class TestPruneParams:
    def test_prunes_redundant_loop_params(self):
        # A loop-invariant value passed as a block param on every edge:
        # block1's v3 is always v0.
        func = parse_function("""\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v4 = iconst 0
  jump block1(v4, v0)
block1(v2: i64, v3: i64):
  v5 = ilt_u v2, v1
  br_if v5, block3, block2
block2:
  v8 = iadd v3, v1
  return v8
block3:
  v6 = iconst 1
  v7 = iadd v2, v6
  jump block1(v7, v0)
}""")
        removed = prune_block_params(func)
        assert removed == 1
        verify_function(func)
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [7, 3]) == 10

    def test_keeps_genuine_phis(self):
        module, func = compiled_func("""
u64 f(u64 c) {
  u64 r = 0;
  if (c) { r = 1; } else { r = 2; }
  return r;
}
""", "f")
        optimize_function(func)
        verify_function(func)
        assert VM(module).call("f", [1]) == 1
        assert VM(module).call("f", [0]) == 2


NAN_1, NAN_2 = 0x7ff8000000000001, 0x7ff8000000000002
NAN_ORDER_GVN = """\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = bits_itof v0
  v3 = bits_itof v1
  v4 = fadd v2, v3
  v5 = fadd v3, v2
  v6 = bits_ftoi v5
  return v6
}"""


class TestGvn:
    def test_cse_within_block(self):
        # v3 is redundant.
        func = parse_function("""\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = iadd v0, v1
  v3 = iadd v0, v1
  v4 = imul v2, v3
  return v4
}""")
        removed = global_value_numbering(func)
        assert removed == 1
        verify_function(func)
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [3, 4]) == 49

    def test_commutative_operands_unify(self):
        # v3 is v2 with its operands swapped.
        func = parse_function("""\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = iadd v0, v1
  v3 = iadd v1, v0
  v4 = isub v2, v3
  return v4
}""")
        assert global_value_numbering(func) == 1
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [11, 31]) == 0

    def test_float_add_operands_keep_their_order(self):
        """Of two NaN operands, the payload ``fadd`` returns depends on
        their order, so ``v5`` is not ``v4``."""
        func = parse_function(NAN_ORDER_GVN)
        module = Module(memory_size=64)
        module.add_function(clone(func))
        expected = VM(module).call("f", [NAN_1, NAN_2])
        optimize_function(func)
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [NAN_1, NAN_2]) == expected

    def test_noncommutative_not_unified(self):
        func = parse_function("""\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = isub v0, v1
  v3 = isub v1, v0
  v4 = ixor v2, v3
  return v4
}""")
        assert global_value_numbering(func) == 0

    def test_dominating_def_reused_across_blocks(self):
        module, func = compiled_func("""
u64 f(u64 x) {
  u64 a = x * 3;
  if (x) { return x * 3 + 1; }
  return a;
}
""", "f")
        before = VM(module).call("f", [5])
        removed = global_value_numbering(func)
        assert removed >= 1
        verify_function(func)
        assert VM(module).call("f", [5]) == before

    def test_sibling_branches_not_unified(self):
        # The same expression in two sibling arms must NOT be unified:
        # neither def dominates the other.
        module, func = compiled_func("""
u64 f(u64 x) {
  u64 r = 0;
  if (x) { r = x + 7; } else { r = x + 7; }
  return r;
}
""", "f")
        global_value_numbering(func)
        verify_function(func)
        assert VM(module).call("f", [1]) == 8
        assert VM(module).call("f", [0]) == 7

    def test_compare_tested_unequal_to_zero_is_the_compare(self):
        """``ine 0, c`` of a compare ``c`` is ``c``, already 0 or 1."""
        func = parse_function("""\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = ilt_u v0, v1
  v3 = iconst 0
  v4 = ine v3, v2
  return v4
}""")
        assert global_value_numbering(func) == 1
        assert "ine" not in ops(func)
        module = Module(memory_size=64)
        module.add_function(func)
        assert [VM(module).call("f", [x, y]) for x, y in
                ((1, 2), (2, 1), (MASK64, 0))] == [1, 0, 0]

    def test_compare_tested_equal_to_zero_is_its_negation(self):
        """``ieq c, 0`` of ``ilt_s`` becomes ``ige_s`` over the same
        operands; the ``ilt_s`` is left without a use."""
        func = parse_function("""\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = ilt_s v0, v1
  v3 = iconst 0
  v4 = ieq v2, v3
  return v4
}""")
        module = Module(memory_size=64)
        module.add_function(clone(func))
        calls = [(1 << 63, MASK64), (MASK64, 1 << 63), ((1 << 63) - 1,
                 1 << 63), (1 << 63, (1 << 63) - 1), (5, 5)]
        expected = [VM(module).call("f", list(args)) for args in calls]
        assert expected == [0, 1, 1, 0, 1]
        global_value_numbering(func)
        eliminate_dead_code(func)
        verify_function(func)
        assert ops(func) == ["ige_s"]
        assert func.blocks[func.entry].instrs[0].args == (0, 1)
        module = Module(memory_size=64)
        module.add_function(func)
        assert [VM(module).call("f", list(args))
                for args in calls] == expected

    def test_ordered_float_compare_tested_equal_to_zero_is_kept(self):
        """``ieq (flt a, b), 0`` is 1 on a NaN operand, where ``fge`` is
        0: no ordered float compare has an exact negation."""
        text = """\
func @f(v0: f64, v1: f64) -> i64 {
block0:
  v2 = flt v0, v1
  v3 = iconst 0
  v4 = ieq v2, v3
  return v4
}"""
        func = parse_function(text)
        assert global_value_numbering(func) == 0
        assert ops(func) == ["flt", "iconst", "ieq"]
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [math.nan, 1.0]) == 1

    def test_negations_are_exact_and_compares_are_the_rows(self):
        """Each pair GVN negates into each other is flipped on every
        grid operand, NaN included; its compares are the table's
        ``1 if <cmp> else 0`` rows."""
        assert gvn.COMPARES == set(COMPARE_OPS)
        grids = {I64: INT_EDGES + (2, (1 << 63) - 1),
                 F64: FLOAT_EDGES + (1.0, -2.5)}
        for op, negation in gvn.NEGATION.items():
            assert gvn.NEGATION[negation] == op
            grid = grids[OPCODES[op].arg_types[0]]
            for x in grid:
                for y in grid:
                    assert PURE_FNS[op](x, y) == 1 - PURE_FNS[negation](x, y)

    @staticmethod
    def _run_both(text, calls, passes=(global_value_numbering,)):
        """``text`` parsed, then run through ``passes``: the function,
        after it verifies and computes on every call what the text
        does."""
        func = parse_function(text)
        module = Module(memory_size=64)
        module.add_function(clone(func))
        expected = [VM(module).call("f", list(args)) for args in calls]
        for run in passes:
            run(func)
        verify_function(func)
        module = Module(memory_size=64)
        module.add_function(func)
        assert [VM(module).call("f", list(args))
                for args in calls] == expected
        return func

    def test_an_edge_decides_the_same_and_the_negated_branch(self):
        """Under ``v2``'s true arm a ``br_if v2`` is a jump to its true
        arm; under its false arm a ``br_if`` on ``v2``'s negation,
        computed in a dominator, is a jump to its true arm."""
        text = """\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = ilt_u v0, v1
  v3 = ige_u v0, v1
  br_if v2, block1, block2
block1:
  br_if v2, block3, block4
block2:
  br_if v3, block5, block6
block3:
  return v0
block4:
  return v1
block5:
  return v1
block6:
  return v0
}"""
        func = parse_function(text)
        assert global_value_numbering(func) == 2
        assert func.blocks[1].terminator == Jump(BlockCall(3))
        assert func.blocks[2].terminator == Jump(BlockCall(5))
        self._run_both(text, [(1, 2), (2, 1), (5, 5), (MASK64, 0)])

    def test_an_edge_decides_a_select(self):
        """``v0`` is nonzero under its true arm and zero under its
        false arm, so each ``select`` on it is a copy of one arm."""
        text = """\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = iconst 0
  br_if v0, block1, block2
block1:
  v3 = select v0, v1, v2
  return v3
block2:
  v4 = select v0, v2, v1
  return v4
}"""
        func = self._run_both(text, [(0, 7), (3, 7), (MASK64, 9)])
        assert "select" not in ops(func)
        assert func.blocks[1].terminator == Ret((1,))
        assert func.blocks[2].terminator == Ret((1,))

    def test_an_edge_decides_a_recomputed_compare(self):
        """Under ``ilt_s v0, v1``'s arms, that compare recomputed and
        its negation ``ige_s`` are constants in place."""
        text = """\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = ilt_s v0, v1
  br_if v2, block1, block2
block1:
  v3 = ige_s v0, v1
  return v3
block2:
  v4 = ilt_s v0, v1
  return v4
}"""
        func = parse_function(text)
        assert global_value_numbering(func) == 2
        assert ops(func) == ["ilt_s", "iconst", "iconst"]
        assert [func.blocks[b].instrs[0].imm for b in (1, 2)] == [0, 0]
        self._run_both(text, [(1, 2), (2, 1), (1 << 63, 0), (5, 5)])

    def test_an_edge_decides_its_condition_only_in_its_subtree(self):
        """A use of ``v2`` under its arms reads the entry block's 1 or
        0; the join, which neither arm dominates, still reads ``v2``."""
        text = """\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = ilt_u v0, v1
  v3 = iconst 1
  v4 = iconst 0
  br_if v2, block1, block2
block1:
  jump block3(v2)
block2:
  v5 = imul v2, v0
  jump block3(v5)
block3(v6: i64):
  v7 = iadd v6, v2
  return v7
}"""
        func = parse_function(text)
        assert global_value_numbering(func) == 2
        assert func.blocks[1].terminator == Jump(BlockCall(3, (3,)))
        assert func.blocks[2].instrs[0].args == (4, 0)
        assert func.blocks[3].instrs[0].args == (6, 2)
        self._run_both(text, [(1, 2), (2, 1), (0, MASK64)])

    def test_an_edge_never_negates_an_ordered_float_compare(self):
        """Under ``flt``'s false arm ``fge`` is not decided: on a NaN
        operand both are 0."""
        text = """\
func @f(v0: f64, v1: f64) -> i64 {
block0:
  v2 = flt v0, v1
  br_if v2, block1, block2
block1:
  v3 = fle v0, v1
  return v3
block2:
  v4 = fge v0, v1
  return v4
}"""
        func = parse_function(text)
        assert global_value_numbering(func) == 0
        assert ops(func) == ["flt", "fle", "fge"]
        self._run_both(text, [(math.nan, 1.0), (1.0, math.nan),
                              (1.0, 2.0), (2.0, 1.0)])

    @pytest.mark.parametrize("branch", [
        "br_if v2, block1, block1",
        "br_table v2, [block1], default block4",
    ])
    def test_a_doubled_or_br_table_edge_decides_nothing(self, branch):
        """``block1`` has one predecessor but is not entered by one arm
        of a ``br_if``: its own ``br_if v2`` stays."""
        text = f"""\
func @f(v0: i64, v1: i64) -> i64 {{
block0:
  v2 = ilt_u v0, v1
  {branch}
block1:
  br_if v2, block2, block3
block2:
  return v0
block3:
  return v1
block4:
  return v1
}}"""
        func = parse_function(text)
        assert global_value_numbering(func) == 0
        assert func.blocks[1].terminator.cond == 2
        self._run_both(text, [(1, 2), (2, 1)])

    def test_loads_never_cse(self):
        # Loads are impure (stores may intervene): GVN must leave them.
        module, func = compiled_func("""
u64 f(u64 p) {
  u64 a = load64(p);
  store64(p, a + 1);
  return a + load64(p);
}
""", "f")
        assert global_value_numbering(func) == 0


class TestCopyProp:
    """GVN's walk resolves algebraic identities and degenerate
    ``select``\\ s to their source operand."""

    def test_add_zero_chain(self):
        func = parse_function("""\
func @f(v0: i64) -> i64 {
block0:
  v1 = iconst 0
  v2 = iadd v0, v1
  v3 = iadd v1, v2
  v4 = isub v3, v1
  return v4
}""")
        global_value_numbering(func)
        assert ops(func) == ["iconst"]
        eliminate_dead_code(func)
        verify_function(func)
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [42]) == 42
        assert func.num_instrs() == 0  # everything folded to `ret x`

    def test_mul_one_and_select_same(self):
        func = parse_function("""\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = iconst 1
  v3 = imul v2, v0
  v4 = select v1, v3, v3
  return v4
}""")
        global_value_numbering(func)
        assert ops(func) == ["iconst"]
        verify_function(func)
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [9, 0]) == 9

    def test_select_constant_condition(self):
        func = parse_function("""\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = iconst 0
  v3 = select v2, v0, v1
  return v3
}""")
        global_value_numbering(func)
        assert ops(func) == ["iconst"]
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [5, 6]) == 6

    def test_negation_is_not_a_copy(self):
        # v2 = 0 - v0 is NOT v0.
        func = parse_function("""\
func @f(v0: i64) -> i64 {
block0:
  v1 = iconst 0
  v2 = isub v1, v0
  return v2
}""")
        assert global_value_numbering(func) == 0
        assert ops(func) == ["iconst", "isub"]
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [1]) == (1 << 64) - 1

    @pytest.mark.parametrize("test,arms", [("ine", (1, 2)),
                                           ("ieq", (2, 1))])
    def test_a_br_if_tests_what_a_zero_test_tests(self, test, arms):
        """``br_if (ine x, 0)`` is ``br_if x`` and ``br_if (ieq x, 0)``
        is ``br_if x`` with its arms swapped: ``br_if`` branches on any
        nonzero value, so the zero test dies."""
        func = parse_function(f"""\
func @f(v0: i64) -> i64 {{
block0:
  v1 = iconst 0
  v2 = {test} v1, v0
  v3 = iconst 10
  v4 = iconst 20
  br_if v2, block1, block2
block1:
  return v3
block2:
  return v4
}}""")
        module = Module(memory_size=64)
        module.add_function(clone(func))
        calls = (0, 1, 2, MASK64)
        expected = [VM(module).call("f", [x]) for x in calls]
        assert global_value_numbering(func) == 1
        eliminate_dead_code(func)
        verify_function(func)
        term = func.entry_block().terminator
        assert (term.cond, term.if_true.block, term.if_false.block) == \
            (0, *arms)
        assert test not in ops(func)
        module = Module(memory_size=64)
        module.add_function(func)
        assert [VM(module).call("f", [x]) for x in calls] == expected

    @pytest.mark.parametrize("outer,inner,ty", [
        ("bits_itof", "bits_ftoi", "f64"), ("bits_ftoi", "bits_itof", "i64")])
    def test_a_bit_cast_round_trip_is_a_copy(self, outer, inner, ty):
        """A cast of the inverse cast of ``x`` is ``x`` to the bit, NaN
        payloads (quiet and signalling) included."""
        func = parse_function(f"""\
func @f(v0: {ty}) -> {ty} {{
block0:
  v1 = {inner} v0
  v2 = {outer} v1
  return v2
}}""")
        def _bits(value):
            return _bits_ftoi(value) if type(value) is float else value

        module = Module(memory_size=64)
        module.add_function(clone(func))
        # A signalling NaN beside the helpers' patterns.
        patterns = FLOAT_BIT_PATTERNS + (0x7FF4000000000002,)
        calls = ([_bits_itof(b) for b in patterns] if ty == "f64"
                 else list(patterns))
        expected = [_bits(VM(module).call("f", [x])) for x in calls]
        assert expected == [_bits(x) for x in calls]
        assert global_value_numbering(func) == 1
        eliminate_dead_code(func)
        assert ops(func) == []
        module = Module(memory_size=64)
        module.add_function(func)
        assert [_bits(VM(module).call("f", [x]))
                for x in calls] == expected


class TestLoadForward:
    def test_load_load_same_block(self):
        module, func = compiled_func("""
u64 f(u64 p) {
  return load64(p) + load64(p);
}
""", "f")
        def load_count():
            return sum(1 for b in func.blocks.values() for i in b.instrs
                       if i.op == "load64")

        assert load_count() == 2
        removed = forward_loads(func)
        assert removed == 1
        verify_function(func)
        assert load_count() == 1

    def test_store_kills_unless_disjoint(self):
        # Store to p+8 cannot alias a load from p (same base, disjoint
        # ranges): the reload of p is forwarded across it.
        module, func = compiled_func("""
u64 f(u64 p) {
  u64 a = load64(p);
  store64(p + 8, 5);
  return a + load64(p);
}
""", "f")
        optimize_function(func, config="none")  # merge blocks only
        # The forwarded reload, plus the store rebased onto p at +8.
        assert forward_loads(func) == 2
        verify_function(func)
        (store,) = [i for i in func.entry_block().instrs
                    if i.op == "store64"]
        assert (store.args[0], store.imm) == (0, 8)  # v0 is p

    def test_store_to_unknown_base_kills(self):
        module, func = compiled_func("""
u64 f(u64 p, u64 q) {
  u64 a = load64(p);
  store64(q, 5);
  return a + load64(p);
}
""", "f")
        optimize_function(func, config="none")
        assert forward_loads(func) == 0  # q may alias p

    def test_store_to_load_forwarding(self):
        module, func = compiled_func("""
u64 f(u64 p, u64 v) {
  store64(p, v);
  return load64(p);
}
""", "f")
        optimize_function(func, config="none")
        assert forward_loads(func) == 1
        verify_function(func)
        module2, _ = compiled_func("""
u64 f(u64 p, u64 v) {
  store64(p, v);
  return load64(p);
}
""", "f")
        assert (VM(module).call("f", [64, 77]) ==
                VM(module2).call("f", [64, 77]) == 77)

    def test_call_kills_everything(self):
        module, func = compiled_func("""
u64 g(u64 p) { store64(p, 9); return 0; }
u64 f(u64 p) {
  u64 a = load64(p);
  u64 x = g(p);
  return a + x + load64(p);
}
""", "f")
        optimize_function(func, config="none")
        assert forward_loads(func) == 0

    def test_forwarding_across_blocks(self):
        module, func = compiled_func("""
u64 f(u64 p, u64 c) {
  u64 a = load64(p);
  u64 r = 0;
  if (c) { r = a + 1; } else { r = a + 2; }
  return r + load64(p);
}
""", "f")
        before1 = VM(module).call("f", [128, 1])
        # Canonicalize the join block's re-passed address parameter
        # first (the pipeline's fixpoint interleaving does this).
        prune_block_params(func)
        removed = forward_loads(func)
        assert removed == 1  # the reload after the join
        verify_function(func)
        assert VM(module).call("f", [128, 1]) == before1

    def test_loop_carried_load_forwarded(self):
        # A loop-invariant reload must be forwarded to the dominating
        # pre-loop load: the availability fact has to survive the back
        # edge (the first definition wins, not the latest).
        module, func = compiled_func("""
u64 f(u64 p, u64 n) {
  u64 a = load64(p);
  u64 s = a;
  for (u64 i = 0; i < n; i++) { s = s + load64(p); }
  return s;
}
""", "f")
        expected = VM(module).call("f", [256, 4])
        prune_block_params(func)
        removed = forward_loads(func)
        assert removed == 1  # the in-loop reload
        verify_function(func)
        assert VM(module).call("f", [256, 4]) == expected

    def test_loop_with_store_not_forwarded(self):
        # If the loop body may store to the address, the reload stays.
        module, func = compiled_func("""
u64 f(u64 p, u64 n) {
  u64 s = load64(p);
  for (u64 i = 0; i < n; i++) {
    store64(p, s + i);
    s = s + load64(p);
  }
  return s;
}
""", "f")
        expected = VM(module).call("f", [256, 4])
        prune_block_params(func)
        # The in-loop load after the store forwards store-to-load
        # locally, but the header-crossing fact must not leak the
        # pre-loop value past the store.
        forward_loads(func)
        verify_function(func)
        assert VM(module).call("f", [256, 4]) == expected

    def test_sub_word_store_not_forwarded(self):
        # store8 truncates: its operand is not what load8_u returns, so
        # store-to-load forwarding must not apply to sub-word stores.
        func = parse_function("""\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  store8 v0, v1
  v2 = load8_u v0
  return v2
}""")
        assert forward_loads(func) == 0
        module = Module(memory_size=4096)
        module.add_function(func)
        assert VM(module).call("f", [64, 0x1FF]) == 0xFF

    @staticmethod
    def _rebase(body, args):
        """``body`` (the blocks of ``f(v0, v1)``) through load-forward
        and DCE: ``(changes, the function)``, after checking the VM result or trap text, and the heap, against
        the unoptimized function at each argument list of ``args``."""
        text = f"func @f(v0: i64, v1: i64) -> i64 {{\n{body}}}"
        module = Module(memory_size=4096)
        module.add_function(parse_function(text, module))
        func = parse_function(text.replace("@f(", "@g("), module)
        changes = forward_loads(func)
        verify_function(func, module)
        eliminate_dead_code(func)
        module.add_function(func)
        for call_args in args:
            runs = []
            for name in ("f", "g"):
                vm = VM(module)
                vm.memory[:4096] = bytes(range(256)) * 16
                try:
                    result = vm.call(name, list(call_args))
                except VMTrap as trap:
                    result = str(trap)
                runs.append((result, bytes(vm.memory)))
            assert runs[0] == runs[1], call_args
        return changes, func

    @staticmethod
    def _memory_ops(func):
        """``func``'s loads and stores as ``(op, base, offset)``."""
        return [(i.op, i.args[0], i.imm)
                for b in func.blocks.values() for i in b.instrs
                if i.op in LOADS or i.op in STORES]

    def test_a_load_is_rebased_onto_its_chains_base(self):
        """``load64 +8 ((v0 + 16) + 8)`` becomes ``load64 +32 v0``: the
        ``iadd``s die, and the sum wraps past 2**64 as the chain did."""
        changes, func = self._rebase("""\
block0:
  v2 = iconst 16
  v3 = iadd v0, v2
  v4 = iconst 8
  v5 = iadd v4, v3
  v6 = load64 +8 v5
  return v6
""", [(64, 0), (MASK64 - 15, 0)])
        assert changes == 1
        assert ops(func) == ["load64"]
        assert self._memory_ops(func) == [("load64", 0, 32)]

    def test_a_store_is_rebased_onto_its_chains_base(self):
        changes, func = self._rebase("""\
block0:
  v2 = iconst 24
  v3 = iadd v0, v2
  store64 v3, v1
  v4 = iconst 0
  return v4
""", [(64, 7), (MASK64 - 7, 7)])
        assert changes == 1
        assert self._memory_ops(func) == [("store64", 0, 24)]

    def test_an_address_with_another_use_is_kept(self):
        """The load is rebased; its ``iadd``, read again, stays."""
        changes, func = self._rebase("""\
block0:
  v2 = iconst 16
  v3 = iadd v0, v2
  v4 = load64 v3
  v5 = iadd v4, v3
  return v5
""", [(64, 0)])
        assert changes == 1
        assert ops(func) == ["iconst", "iadd", "load64", "iadd"]
        assert self._memory_ops(func) == [("load64", 0, 16)]

    @pytest.mark.parametrize("address", [
        # An absolute address: the constant base is no value to rebase on.
        "v2 = iconst 64\n  v3 = iadd v2, v2",
        # A net offset of 2**31: past the bound.
        f"v2 = iconst {2 ** 31 - 8}\n  v3 = iadd v0, v2",
        # A net-negative delta, which is an offset near 2**64.
        "v2 = iconst 16\n  v3 = isub v0, v2",
    ], ids=["absolute", "offset-2**31", "net-negative"])
    def test_an_address_is_left_alone(self, address):
        changes, func = self._rebase(f"""\
block0:
  {address}
  v4 = load64 +8 v3
  return v4
""", [(64, 0), (MASK64 - 7, 0), (1 << 31, 0)])
        assert changes == 0
        assert self._memory_ops(func) == [("load64", 3, 8)]


# A constant edge into a forwarder: block0 passes 1 into block1, whose
# br_if decides on that parameter; block4 passes the runtime x.
CONST_FORWARDER = """\
func @f(v0: i64) -> i64 {
block0:
  v2 = iconst 1
  br_if v0, block4, block1(v2)
block1(v1: i64):
  br_if v1, block2, block3
block2:
  v3 = iconst 10
  return v3
block3:
  v4 = iconst 20
  return v4
block4:
  jump block1(v0)
}"""

# The same shape, but the forwarder's parameter p (v1) is also read past
# it: on the true arm (``"t"``: returns p + 10) or the false arm (``"f"``:
# returns p + 20).
PARAM_READERS = {
    "t": """\
func @f(v0: i64) -> i64 {
block0:
  v2 = iconst 1
  br_if v0, block4, block1(v2)
block1(v1: i64):
  br_if v1, block2, block3
block2:
  v3 = iconst 10
  v4 = iadd v1, v3
  return v4
block3:
  v5 = iconst 20
  return v5
block4:
  jump block1(v0)
}""",
    "f": """\
func @f(v0: i64) -> i64 {
block0:
  v2 = iconst 1
  br_if v0, block4, block1(v2)
block1(v1: i64):
  br_if v1, block2, block3
block2:
  v3 = iconst 10
  return v3
block3:
  v4 = iconst 20
  v5 = iadd v1, v4
  return v5
block4:
  jump block1(v0)
}""",
}


def _entry_targets(func):
    """The entry block's edges as ``(block, args)`` pairs."""
    return [(c.block, tuple(c.args))
            for c in func.entry_block().terminator.targets()]


class TestJumpThreading:
    def test_threads_constant_edge(self):
        func = parse_function(CONST_FORWARDER)
        threaded = thread_jumps(func)
        # The constant edge, past block1 to block2, and the runtime edge,
        # past block4 to block1(v0).
        assert threaded == 2
        verify_function(func)
        entry_term = func.entry_block().terminator
        # The constant edge now bypasses the forwarder entirely.
        targets = [c.block for c in entry_term.targets()]
        assert targets == [1, 2]
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [0]) == 10  # const edge: cond=1
        assert VM(module).call("f", [5]) == 10  # runtime edge: cond=5

    def test_forwarder_param_read_on_decided_arm(self, monkeypatch):
        """Bypassing ``fwd`` would leave ``t``'s read of ``p`` without a
        definition on the threaded path: the edge stays, the function
        verifies, and the default pipeline computes ``p + 10``."""
        func = parse_function(PARAM_READERS["t"])
        # Only block4's ``jump block1(v0)`` is threaded: block1 is not
        # bypassed.
        assert thread_jumps(func) == 1
        verify_function(func)
        assert _entry_targets(func) == [(1, (0,)), (1, (2,))]
        monkeypatch.setenv("REPRO_OPT_VERIFY", "1")
        optimize_function(func)
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [0]) == 11   # const edge: p = 1
        assert VM(module).call("f", [5]) == 15   # runtime edge: p = 5

    def test_forwarder_param_read_on_undecided_arm_is_refused(self):
        """Only ``f``, the arm the constant edge does not take, reads
        ``p``: bypassing ``fwd`` would be SSA-valid, but ``fwd`` is not a
        forwarder under the one rule, so the edge stays."""
        func = parse_function(PARAM_READERS["f"])
        # Only block4's ``jump block1(v0)`` is threaded: block1 is not
        # bypassed.
        assert thread_jumps(func) == 1
        verify_function(func)
        assert _entry_targets(func) == [(1, (0,)), (1, (2,))]
        module = Module(memory_size=64)
        module.add_function(func)
        assert VM(module).call("f", [0]) == 10
        assert VM(module).call("f", [5]) == 10

    def test_uniform_brif_folds(self):
        module, func = compiled_func("""
u64 f(u64 c) {
  u64 r = 0;
  if (c) { r = 1; } else { r = 1; }
  return r;
}
""", "f")
        optimize_function(func)
        verify_function(func)
        assert len(func.blocks) == 1  # fully linearized
        assert VM(module).call("f", [0]) == 1
        assert VM(module).call("f", [3]) == 1


# ---------------------------------------------------------------------------
# Generated CFGs through the jump-threading seam.
# ---------------------------------------------------------------------------
@st.composite
def forwarder_cfgs(draw):
    """A small verifier-valid function: a loop header ``h(i, acc)``
    exits on ``i == 0``, else its body branches into chains of empty
    forwarders (``jump`` / ``br_if`` / ``br_table``, each passing a mix
    of constants, runtime values and its own params).  They lead on to
    exit blocks that return, take the back edge ``h(i - 1, v)``, or go
    back to ``h`` straight from a forwarder.  An exit *owned* by one
    forwarder is branched to by it alone, so it may read that
    forwarder's params."""
    ir = IRText("func @f(v0: i64) -> i64 {", 1)  # v0 is x
    consts = [ir.const(draw(st.integers(0, 3))) for _ in range(3)]
    one = ir.const(1)
    header, (i, acc) = ir.block(2)
    ir.line(f"jump {target(header, [0, consts[0]])}")
    body, done = ir.block()[0], ir.block()[0]
    fwds = [ir.block(draw(st.integers(0, 2)))
            for _ in range(draw(st.integers(1, 4)))]
    exits = [ir.block(draw(st.integers(0, 2)))
             for _ in range(draw(st.integers(1, 3)))]
    # Exit 0 is shared, so every block has somewhere to go.
    owners = [None] + [draw(st.sampled_from([None, *range(len(fwds))]))
                       for _ in exits[1:]]

    ir.current = header
    common = consts + [i, acc, ir.define(f"iadd v{acc}, v{i}")]
    ir.line(f"br_if v{i}, block{body}, block{done}")
    ir.current = done
    ir.line(f"return v{acc}")

    def branch(k, values):
        """Terminate the current block (forwarder ``k``, or the body for
        ``k = -1``) toward later forwarders, allowed exits, or ``h``."""
        targets = fwds[k + 1:] + [e for e, owner in zip(exits, owners)
                                  if owner is None or owner == k]
        if k >= 0:
            targets.append((header, [i, acc]))
        picked = draw(st.lists(st.sampled_from(targets), min_size=1,
                               max_size=3))
        calls = [target(blk, [draw(st.sampled_from(values))
                              for _ in params]) for blk, params in picked]
        kind = draw(st.sampled_from(["jump", "br_if", "br_table"]))
        selector = draw(st.sampled_from(values))
        if kind == "jump" or len(picked) == 1:
            ir.line(f"jump {calls[0]}")
        elif kind == "br_if":
            ir.line(f"br_if v{selector}, {calls[0]}, {calls[1]}")
        else:
            ir.line(f"br_table v{selector}, [{', '.join(calls[:-1])}], "
                    f"default {calls[-1]}")

    ir.current = body
    branch(-1, common)
    for k, (fwd, params) in enumerate(fwds):
        ir.current = fwd
        branch(k, common + params)
    for (exit_block, params), owner in zip(exits, owners):
        ir.current = exit_block
        values = common + params
        if owner is not None:
            values += fwds[owner][1]
        value = ir.define(f"iadd v{draw(st.sampled_from(values))}, "
                          f"v{draw(st.sampled_from(values))}")
        if draw(st.booleans()):
            ir.line(f"return v{value}")
        else:
            rest = ir.define(f"isub v{i}, v{one}")
            ir.line(f"jump {target(header, [rest, value])}")
    return parse_function(ir.text())


# The 64-byte heap ``f`` runs over: bytes of both signs, so a narrow
# signed load reads negative and non-negative values.
HEAP = bytes((i * 37 + 0x5B) & 0xFF for i in range(64))


def _run(func, args):
    """``(outcome, heap afterwards)`` of ``f(*args)`` on a fresh VM over
    :data:`HEAP`."""
    module = Module(memory_size=len(HEAP))
    module.write_init(0, HEAP)
    module.add_function(clone(func))
    vm = VM(module, fuel_limit=2000)
    try:
        outcome = "value", vm.call("f", list(args))
    except VMTrap as trap:
        outcome = "trap", str(trap)
    except OutOfFuel:
        outcome = "fuel", None
    return outcome, bytes(vm.memory)


def _outcome(func, args):
    return _run(func, args)[0]


@given(forwarder_cfgs())
@settings(max_examples=200, deadline=None)
def test_jump_threading_oracle(original):
    """``thread_jumps``, then ``simplify_cfg``, then the default
    pipeline: the function verifies after each step and computes what
    the original does on every input the original finishes."""
    note(print_function(original, order="id"))
    verify_function(original)
    assert_text_round_trips(original)
    expected = {arg: _outcome(original, [arg]) for arg in (0, 1, 3)}

    def default_pipeline(func):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_OPT_VERIFY", "1")
            optimize_function(func)

    func = clone(original)
    for step in (thread_jumps, simplify_cfg, default_pipeline):
        note(step.__name__)
        step(func)
        verify_function(func)
        for arg, outcome in expected.items():
            if outcome[0] != "fuel":
                assert _outcome(func, [arg]) == outcome, print_function(func)


class TestOptimizeFunction:
    def test_passes_are_the_roster(self):
        """The names the ledger reads its ``opt.<pass>.*`` rows by."""
        assert [name for name, _ in PASSES] == [
            "gvn", "prune-params", "simplify-cfg", "load-forward", "dce"]

    def test_unknown_config_rejected(self):
        _, func = compiled_func("u64 f() { return 1; }", "f")
        with pytest.raises(ValueError, match="bad opt_config"):
            optimize_function(func, "turbo")
        with pytest.raises(ValueError, match="bad opt_config"):
            SpecializeOptions(opt_config="turbo")

    def test_stats_collected_per_pass(self):
        module, func = compiled_func(
            "u64 f() { return (2 + 3) * 4 - 1; }", "f")
        stats = optimize_function(func, module=module)
        assert stats.runs == 1
        assert stats.instrs_after < stats.instrs_before
        assert stats.per_pass["gvn"].changes >= 3
        assert stats.per_pass["gvn"].seconds >= 0.0
        assert stats.rounds >= 2  # at least one round plus the clean one

    def test_shared_stats_accumulate(self):
        from repro.core.stats import PipelineStats
        shared = PipelineStats()
        for _ in range(3):
            module, func = compiled_func(
                "u64 f(u64 x) { return x + 0 + 0; }", "f")
            optimize_function(func, stats=shared)
        assert shared.runs == 3

    def test_default_pipeline_not_weaker_than_none(self):
        src = """
u64 f(u64 p) {
  u64 s = 0;
  for (u64 i = 0; i < 8; i++) {
    store64(p + i * 8, i);
    s = s + load64(p + i * 8);
  }
  return s;
}
"""
        module_a, func_a = compiled_func(src, "f")
        module_b, func_b = compiled_func(src, "f")
        optimize_function(func_a, config="none")
        optimize_function(func_b, config="default")
        verify_function(func_b)
        assert func_b.num_instrs() <= func_a.num_instrs()
        assert (VM(module_a).call("f", [256]) ==
                VM(module_b).call("f", [256]) == 28)


class TestPipeline:
    def test_idempotent(self):
        module, func = compiled_func("""
u64 f(u64 n) {
  u64 acc = 0;
  u64 i = 0;
  while (i < n) { acc += i; i++; }
  return acc;
}
""", "f")
        optimize_function(func)
        from repro.ir import print_function
        first = print_function(func, "id")
        optimize_function(func)
        assert print_function(func, "id") == first


# ---------------------------------------------------------------------------
# The generated mid-end oracle.
# ---------------------------------------------------------------------------

INT_EDGES = (0, 1, MASK64, 1 << 63)
FLOAT_EDGES = (0.0, -0.0, math.inf, -math.inf,
               _bits_itof(NAN_1), _bits_itof(NAN_2))
# What the function's three i64 parameters are called with: the int
# edges, and the float edges as their bits.
EDGE_BITS = INT_EDGES + tuple(_bits_ftoi(x) for x in FLOAT_EDGES)
# And addresses at either end of the 64-bit space, so that an address
# chain over a parameter wraps past 2**64 into the heap (or below 0).
ADDRESS_BITS = (8, 40, MASK64 - 7, MASK64 - 39)
HEADER = "func @f(v0: i64, v1: i64, v2: i64) -> i64 {"


def _operand(draw, ir, pools, ty):
    """An earlier value of type ``ty`` (three times in four), or a new
    edge constant."""
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(pools[ty]))
    if ty == I64:
        value = ir.const(draw(st.sampled_from(INT_EDGES)))
    else:
        value = ir.define(
            f"fconst {float_text(draw(st.sampled_from(FLOAT_EDGES)))}")
    pools[ty].append(value)
    return value


def _compare_test(draw, ir, pools):
    """A compare, and ``ine`` or ``ieq`` of it against 0 with the zero
    on either side: what GVN turns into the compare or its negation."""
    op = draw(st.sampled_from(COMPARE_OPS))
    ty = OPCODES[op].arg_types[0]
    args = [_operand(draw, ir, pools, ty) for _ in range(2)]
    compare = ir.define(f"{op} v{args[0]}, v{args[1]}")
    pair = [compare, ir.const(0)]
    if draw(st.booleans()):
        pair.reverse()
    test = draw(st.sampled_from(["ine", "ieq"]))
    pools[I64] += [compare, ir.define(f"{test} v{pair[0]}, v{pair[1]}")]


def _memory_op(draw, ir, pools):
    """A load or store at an offset from a chain of ``iadd``/``isub`` of
    constants over a parameter or an earlier i64: what load-forward
    rebases onto the chain's base when the net offset is small and not
    negative."""
    address = draw(st.sampled_from([0, 1, 2] if draw(st.booleans())
                                    else pools[I64]))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["iadd", "isub"]))
        delta = ir.const(draw(st.integers(-24, 24)) & MASK64)
        pair = [address, delta]
        if op == "iadd" and draw(st.booleans()):
            pair.reverse()
        address = ir.define(f"{op} v{pair[0]}, v{pair[1]}")
    offset = draw(st.sampled_from([0, 8, 16]))
    at = f" +{offset}" if offset else ""
    op = draw(st.sampled_from(sorted(LOADS) + sorted(STORES)))
    if op in LOADS:
        ty = F64 if LOADS[op].float else I64
        pools[ty].append(ir.define(f"{op}{at} v{address}"))
    else:
        ty = F64 if STORES[op].float else I64
        ir.line(f"{op}{at} v{address}, v{_operand(draw, ir, pools, ty)}")


def _pure_ops(draw, ir, pools):
    """A few pure ops in the current block, over ``pools`` (a value
    list per type), and now and then a load or store; most of their
    results stay dead."""
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            _compare_test(draw, ir, pools)
            continue
        if kind == 1:
            _memory_op(draw, ir, pools)
            continue
        op = draw(st.sampled_from(sorted(PURE_EXPRS)))
        if op == "select":
            ty = draw(st.sampled_from([I64, F64]))
            arg_types = (I64, ty, ty)
        else:
            ty, arg_types = OPCODES[op].result, OPCODES[op].arg_types
        args = [_operand(draw, ir, pools, t) for t in arg_types]
        pools[ty].append(
            ir.define(f"{op} {', '.join(f'v{a}' for a in args)}"))


# The compare each ordered float compare would have as its negation if
# NaN did not make both 0: a second test the walk must not decide.
FLIPPED = {"flt": "fge", "fge": "flt", "fle": "fgt", "fgt": "fle"}


def _head_compare(draw, ir, pools):
    """A compare, integer or ordered float, defined to be the diamond's
    ``br_if`` selector: ``(value, op, operands)``."""
    op = draw(st.sampled_from(COMPARE_OPS))
    ty = OPCODES[op].arg_types[0]
    args = tuple(_operand(draw, ir, pools, ty) for _ in range(2))
    value = ir.define(f"{op} v{args[0]}, v{args[1]}")
    pools[I64].append(value)
    return value, op, args


def _second_test(draw, ir, head):
    """In the current block, what to test again of the head's compare:
    the compare itself, recomputed, its negation (an ordered float
    compare's flip, which is not one), or ``ieq`` of it against 0."""
    value, op, (a, b) = head
    kind = draw(st.sampled_from(["itself", "same", "negation", "ieq"]))
    if kind == "itself":
        return value
    if kind == "ieq":
        return ir.define(f"ieq v{value}, v{ir.const(0)}")
    if kind == "negation":
        op = gvn.NEGATION.get(op) or FLIPPED[op]
    return ir.define(f"{op} v{a}, v{b}")


@st.composite
def mid_end_functions(draw):
    """Straight-line code, or straight-line code around one diamond
    whose arms each pass an i64 to the join; returns some value's bits,
    half the diamonds the joined value's.  The diamond's head ends in a
    ``br_if``, whose arms may be one block, or a ``br_table``; the
    selector, drawn from the i64 pool, may be a constant: in range, or
    one that takes the default.  A ``br_if`` may test a compare of its
    own, and then each arm may test it again (itself, recomputed,
    negated or ``ieq`` against 0) before it reaches the join: what an
    edge decides."""
    ir = IRText(HEADER, 3)
    pools = {I64: [0, 1, 2],
             F64: [ir.define(f"bits_itof v{p}") for p in range(3)]}
    _pure_ops(draw, ir, pools)
    branch = draw(st.sampled_from([None, "br_if", "br_table"]))
    if branch:
        head = None
        if branch == "br_if" and draw(st.booleans()):
            head = _head_compare(draw, ir, pools)
            selector = head[0]
        else:
            selector = draw(st.sampled_from(pools[I64]))
        arms = ir.block()[0], ir.block()[0]
        join, (joined,) = ir.block(1)
        if branch == "br_if":
            # Both arms may be the first: two edges into one block.
            ir.line(f"br_if v{selector}, block{arms[0]}, "
                    f"block{draw(st.sampled_from(arms))}")
        else:
            cases = draw(st.lists(st.sampled_from(arms), min_size=1,
                                  max_size=3))
            default = draw(st.sampled_from(arms))
            ir.line(f"br_table v{selector}, "
                    f"[{', '.join(f'block{arm}' for arm in cases)}], "
                    f"default block{default}")
        for arm in arms:
            ir.current = arm
            arm_pools = {ty: list(values) for ty, values in pools.items()}
            _pure_ops(draw, ir, arm_pools)
            exits = [arm]
            if head and draw(st.booleans()):
                test = _second_test(draw, ir, head)
                exits = ir.block()[0], ir.block()[0]
                ir.line(f"br_if v{test}, block{exits[0]}, block{exits[1]}")
            for leaf in exits:
                ir.current = leaf
                passed = draw(st.sampled_from(arm_pools[I64]))
                ir.line(f"jump {target(join, [passed])}")
        ir.current = join
        pools[I64].append(joined)
        _pure_ops(draw, ir, pools)
    # Half the diamonds return what the join received, so that which
    # way each branch went shows in the result.
    if branch and draw(st.booleans()):
        result = joined
    else:
        result = draw(st.sampled_from(pools[I64] + pools[F64]))
    if result in pools[F64]:
        result = ir.define(f"bits_ftoi v{result}")
    ir.line(f"return v{result}")
    return ir.text()


@given(text=mid_end_functions(),
       calls=st.lists(st.tuples(*[st.sampled_from(EDGE_BITS
                                                  + ADDRESS_BITS)] * 3),
                      min_size=1, max_size=4))
@example(text=f"""{HEADER}
block0:
  v3 = bits_itof v0
  v4 = bits_itof v1
  v5 = bits_itof v2
  v6 = iconst 10
  v7 = idiv_u v6, v0
  v8 = iconst 1
  return v8
}}""", calls=[(0, 0, 0)])
@example(text=f"""{HEADER}
block0:
  v3 = bits_itof v0
  v4 = bits_itof v1
  v5 = bits_itof v2
  v6 = fadd v3, v4
  v7 = fadd v4, v3
  v8 = bits_ftoi v7
  return v8
}}""", calls=[(NAN_1, NAN_2, 0)])
@example(text=f"""{HEADER}
block0:
  v3 = bits_itof v0
  v4 = bits_itof v1
  v5 = bits_itof v2
  v6 = flt v3, v4
  v7 = iconst 0
  v8 = ieq v6, v7
  return v8
}}""", calls=[(NAN_1, 0, 0), (0, NAN_2, 0), (NAN_1, NAN_2, 0)])
@example(text=f"""{HEADER}
block0:
  v3 = bits_itof v0
  v4 = bits_itof v1
  v5 = bits_itof v2
  v6 = ilt_s v0, v1
  v7 = iconst 0
  v8 = ieq v7, v6
  br_if v8, block1, block2
block1:
  return v6
block2:
  return v1
}}""", calls=[(1 << 63, MASK64, 0), (MASK64, 1 << 63, 0),
              ((1 << 63) - 1, 1 << 63, 0), (1 << 63, 1 << 63, 0)])
@example(text=f"""{HEADER}
block0:
  v3 = bits_itof v0
  v4 = bits_itof v1
  v5 = bits_itof v2
  v6 = flt v3, v4
  br_if v6, block1, block2
block1:
  v7 = fle v3, v4
  br_if v7, block3, block4
block2:
  v8 = fge v3, v4
  br_if v8, block3, block4
block3:
  return v0
block4:
  return v1
}}""", calls=[(NAN_1, 0, 0), (0, NAN_1, 0), (NAN_1, NAN_2, 0)])
@example(text=f"""{HEADER}
block0:
  v3 = bits_itof v0
  v4 = bits_itof v1
  v5 = bits_itof v2
  v6 = ilt_u v0, v1
  br_if v6, block1, block1
block1:
  br_if v6, block2, block3
block2:
  return v0
block3:
  return v1
}}""", calls=[(1, 0, 0), (0, 1, 0)])
@example(text=f"""{HEADER}
block0:
  v3 = bits_itof v0
  v4 = bits_itof v1
  v5 = bits_itof v2
  v6 = iconst 16
  v7 = iadd v0, v6
  store32 +8 v7, v1
  v8 = iconst 8
  v9 = isub v7, v8
  v10 = load64 +8 v9
  return v10
}}""", calls=[(MASK64 - 7, MASK64, 0), (MASK64 - 39, 1, 0), (40, 1, 0)])
@settings(max_examples=300, deadline=None)
def test_mid_end_oracle(text, calls):
    """``optimize_function`` on a clone returns the bits the function
    returns on the VM, or traps with the same text, and leaves the same
    heap."""
    note(text)
    original = parse_function(text)
    optimized = clone(original)
    optimize_function(optimized)
    verify_function(optimized)
    note(print_function(optimized, order="id"))
    for args in calls:
        assert _run(optimized, args) == _run(original, args), args
