"""Unit tests for the IR substrate: builder, verifier, printer, CFG."""

import pytest

from repro.ir import (
    DominatorTree,
    F64,
    FunctionBuilder,
    I64,
    Module,
    Signature,
    VerificationError,
    predecessors,
    print_function,
    retreating_edges,
    reverse_postorder,
    successors,
    verify_function,
    verify_module,
)
from repro.ir.clone import clone_function


def make_loop_function():
    fb = FunctionBuilder("loop", Signature((I64,), (I64,)))
    n = fb.entry.params[0][0]
    header = fb.new_block([I64, I64])
    body = fb.new_block()
    exit_b = fb.new_block([I64])
    zero = fb.iconst(0)
    fb.jump(header, [zero, zero])
    fb.switch_to(header)
    i, acc = header.param_values()
    cond = fb.ilt_u(i, n)
    fb.br_if(cond, body, exit_b, [], [acc])
    fb.switch_to(body)
    one = fb.iconst(1)
    acc2 = fb.iadd(acc, i)
    i2 = fb.iadd(i, one)
    fb.jump(header, [i2, acc2])
    fb.switch_to(exit_b)
    fb.ret(exit_b.param_values()[0])
    return fb.finish()


class TestBuilder:
    def test_builds_valid_function(self):
        func = make_loop_function()
        verify_function(func)

    def test_entry_params_match_signature(self):
        func = make_loop_function()
        assert [t for _, t in func.entry_block().params] == [I64]

    def test_value_types_recorded(self):
        fb = FunctionBuilder("t", Signature((I64, F64), (F64,)))
        x = fb.entry.params[1][0]
        y = fb.emit("fadd", (x, x))
        fb.ret(y)
        func = fb.finish()
        assert func.type_of(y) == F64

    def test_counts(self):
        func = make_loop_function()
        assert func.num_blocks() == 4
        assert func.num_instrs() == 5
        # header has 2 params, exit has 1; entry params don't count.
        assert func.total_block_params() == 3


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
        fb = FunctionBuilder("bad", Signature((), ()))
        func = fb.finish()
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(func)

    def test_detects_type_mismatch(self):
        fb = FunctionBuilder("bad", Signature((I64, F64), (I64,)))
        x = fb.entry.params[0][0]
        y = fb.entry.params[1][0]
        fb.current.instrs.append(
            __import__("repro.ir.instructions", fromlist=["Instr"]).Instr(
                "iadd", fb.func.new_value(I64), (x, y), None, I64))
        fb.ret(x)
        with pytest.raises(VerificationError, match="type"):
            verify_function(fb.finish())

    def test_detects_use_before_def_across_blocks(self):
        fb = FunctionBuilder("bad", Signature((I64,), (I64,)))
        a = fb.new_block()
        b = fb.new_block()
        cond = fb.entry.params[0][0]
        fb.br_if(cond, a, b)
        fb.switch_to(a)
        v = fb.iconst(1)
        fb.ret(v)
        fb.switch_to(b)
        fb.ret(v)  # v defined in a, does not dominate b
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(fb.finish())

    def test_detects_branch_arity_mismatch(self):
        fb = FunctionBuilder("bad", Signature((), ()))
        target = fb.new_block([I64])
        fb.jump(target, [])  # missing arg
        fb.switch_to(target)
        fb.ret()
        with pytest.raises(VerificationError, match="passes"):
            verify_function(fb.finish())

    def test_module_call_signature_check(self):
        module = Module(memory_size=4096)
        callee = FunctionBuilder("callee", Signature((I64,), (I64,)))
        callee.ret(callee.entry.params[0][0])
        module.add_function(callee.finish())
        caller = FunctionBuilder("caller", Signature((), ()))
        caller.call("callee", [], result_type=I64)  # wrong arity
        caller.ret()
        module.add_function(caller.finish())
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
        clone = clone_function(func)
        assert print_function(func, "id") == print_function(clone, "id")


class TestClone:
    def test_clone_is_independent(self):
        func = make_loop_function()
        clone = clone_function(func, "other")
        clone.blocks[clone.entry].instrs.clear()
        assert func.blocks[func.entry].instrs  # original untouched
        assert clone.name == "other"


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
        fb = FunctionBuilder("f", Signature((), ()))
        fb.ret()
        module.add_function(fb.finish())
        index = module.add_table_entry("f")
        assert index == 1  # slot 0 is reserved null
        assert module.table[index] == "f"

    def test_duplicate_function_rejected(self):
        module = Module(memory_size=64)
        fb = FunctionBuilder("f", Signature((), ()))
        fb.ret()
        module.add_function(fb.finish())
        fb2 = FunctionBuilder("f", Signature((), ()))
        fb2.ret()
        with pytest.raises(ValueError):
            module.add_function(fb2.finish())
