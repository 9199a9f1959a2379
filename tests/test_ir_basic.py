"""Unit tests for the IR substrate: functions read from their text,
verifier, printer, CFG."""

import re

import pytest

from repro.ir import (
    DominatorTree,
    F64,
    I64,
    Module,
    VerificationError,
    parse_function,
    predecessors,
    print_function,
    retreating_edges,
    reverse_postorder,
    successors,
    verify_function,
    verify_module,
)

from tests.helpers import block_params, clone


LOOP = """\
func @loop(v0: i64) -> i64 {
block0:
  v4 = iconst 0
  jump block1(v4, v4)
block1(v1: i64, v2: i64):
  v5 = ilt_u v1, v0
  br_if v5, block2, block3(v2)
block2:
  v6 = iconst 1
  v7 = iadd v2, v1
  v8 = iadd v1, v6
  jump block1(v8, v7)
block3(v3: i64):
  return v3
}"""


def make_loop_function():
    return parse_function(LOOP)


class TestBuilder:
    """A function is built from its text."""

    def test_builds_valid_function(self):
        func = make_loop_function()
        verify_function(func)

    def test_entry_params_match_signature(self):
        func = make_loop_function()
        assert [t for _, t in func.entry_block().params] == [I64]

    def test_value_types_recorded(self):
        func = parse_function("""\
func @t(v0: i64, v1: f64) -> f64 {
block0:
  v2 = fadd v1, v1
  return v2
}""")
        assert func.type_of(2) == F64

    def test_counts(self):
        func = make_loop_function()
        assert len(func.blocks) == 4
        assert func.num_instrs() == 5
        # header has 2 params, exit has 1; entry params don't count.
        assert block_params(func) == 3


class TestCfg:
    def test_successors(self):
        func = make_loop_function()
        succs = successors(func, func.entry)
        assert len(succs) == 1

    def test_predecessors(self):
        func = make_loop_function()
        preds = predecessors(func)
        header = succ = successors(func, func.entry)[0]
        assert len(preds[header]) == 2  # entry + backedge

    def test_reverse_postorder_starts_at_entry(self):
        func = make_loop_function()
        rpo = reverse_postorder(func)
        assert rpo[0] == func.entry
        assert len(rpo) == 4

    def test_retreating_edges_finds_the_backedge(self):
        func = make_loop_function()
        header = successors(func, func.entry)[0]
        body = successors(func, header)[0]
        assert retreating_edges(func) == frozenset({(body, header)})


class TestDominance:
    def test_entry_dominates_all(self):
        func = make_loop_function()
        dom = DominatorTree(func)
        for bid in func.blocks:
            assert dom.dominates(func.entry, bid)

    def test_header_dominates_body_and_exit(self):
        func = make_loop_function()
        dom = DominatorTree(func)
        header = successors(func, func.entry)[0]
        for succ in successors(func, header):
            assert dom.dominates(header, succ)
            assert not dom.dominates(succ, header)


class TestVerifier:
    def test_detects_missing_terminator(self):
        func = parse_function("func @bad() {\nblock0:\n  return\n}")
        func.entry_block().terminator = None  # no text spells this
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(func)

    def test_detects_type_mismatch(self):
        func = parse_function("""\
func @bad(v0: i64, v1: f64) -> i64 {
block0:
  v2 = iadd v0, v1
  return v0
}""")
        with pytest.raises(VerificationError, match="type"):
            verify_function(func)

    def test_detects_use_before_def_across_blocks(self):
        # v1 is defined in block1, which does not dominate block2.
        func = parse_function("""\
func @bad(v0: i64) -> i64 {
block0:
  br_if v0, block1, block2
block1:
  v1 = iconst 1
  return v1
block2:
  return v1
}""")
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(func)

    def test_detects_branch_arity_mismatch(self):
        func = parse_function("""\
func @bad() {
block0:
  jump block1
block1(v0: i64):
  return
}""")
        with pytest.raises(VerificationError, match="passes"):
            verify_function(func)

    def test_module_call_signature_check(self):
        module = Module(memory_size=4096)
        module.add_function(parse_function("""\
func @callee(v0: i64) -> i64 {
block0:
  return v0
}"""))
        # The call passes no argument to a one-parameter callee.
        module.add_function(parse_function("""\
func @caller() {
block0:
  v0 = call @callee
  return
}""", module))
        with pytest.raises(VerificationError, match="arg count"):
            verify_module(module)


class TestPrinter:
    def test_prints_all_blocks(self):
        text = print_function(make_loop_function())
        assert text.count("block") >= 4
        assert "br_if" in text
        assert "func @loop" in text

    def test_stable_under_clone(self):
        func = make_loop_function()
        copy = clone(func)
        assert print_function(func, "id") == print_function(copy, "id")


class TestClone:
    def test_clone_is_independent(self):
        func = make_loop_function()
        copy = clone(func, name="other")
        copy.blocks[copy.entry].instrs.clear()
        assert func.blocks[func.entry].instrs  # original untouched
        assert copy.name == "other"

    def test_fresh_ids_stay_fresh(self):
        """The copy keeps the original's ids and hands out new ones past
        them, so a transform can add values and blocks to it."""
        func = make_loop_function()
        copy = clone(func)
        used = {int(v) for v in re.findall(r"\bv(\d+)", LOOP)}
        assert copy.new_value(I64) > max(used)
        assert copy.new_block().id not in func.blocks


EMPTY = "func @f() {\nblock0:\n  return\n}"


class TestModule:
    def test_memory_init_roundtrip(self):
        module = Module(memory_size=4096)
        module.write_init_u64(64, 0xDEADBEEF)
        assert module.read_init_u64(64) == 0xDEADBEEF

    def test_init_out_of_range(self):
        module = Module(memory_size=64)
        with pytest.raises(ValueError):
            module.write_init_u64(60, 1)

    def test_table(self):
        module = Module(memory_size=64)
        module.add_function(parse_function(EMPTY))
        index = module.add_table_entry("f")
        assert index == 1  # slot 0 is reserved null
        assert module.table[index] == "f"

    def test_duplicate_function_rejected(self):
        module = Module(memory_size=64)
        module.add_function(parse_function(EMPTY))
        with pytest.raises(ValueError):
            module.add_function(parse_function(EMPTY))
