"""Property tests for the IR verifier and the mid-end's verify mode.

Two directions:

* **soundness of the mid-end**: every function the specializer produces
  verifies cleanly, and stays valid after each pass of ``PASSES`` and
  each CFG sub-pass runs in isolation (so no pass can only be run as
  part of the full pipeline);
* **completeness of the verifier**: malformed functions, written as
  IR text — use-before-def, bad branch arity, dangling block
  references, operand type mismatches, missing terminators — are each
  rejected with a precise error naming the offence.
"""

import warnings

import pytest

import repro.opt.pipeline as pipeline

from repro.core.specialize import SpecializeOptions
from repro.frontend import compile_source
from repro.ir import (
    BlockCall,
    I64,
    Instr,
    Jump,
    Module,
    VerificationError,
    parse_function,
    verify_function,
)
from repro.min.harness import sum_to_n_program
from repro.min.interp import build_min_module, specialize_min
from repro.opt import (
    PASSES,
    optimize_function,
    remove_unreachable_blocks,
    thread_jumps,
)
from repro.opt.pipeline import OPT_MAX_ROUNDS, verify_after_pass

from tests.helpers import clone

O0 = SpecializeOptions(opt_config="none")


# ---------------------------------------------------------------------------
# A corpus of real functions: frontend-compiled and specializer-produced.
# ---------------------------------------------------------------------------

CORPUS_SRC = {
    "loop": """
u64 loop(u64 n) {
  u64 acc = 0;
  for (u64 i = 0; i < n; i++) { acc += i * i; }
  return acc;
}
""",
    "diamond": """
u64 diamond(u64 c) {
  u64 r = 0;
  if (c) { r = c * 3; } else { r = c + 7; }
  return r - 1;
}
""",
    "memory": """
u64 memory(u64 p) {
  store64(p, 11);
  store64(p + 8, load64(p) + 1);
  return load64(p) + load64(p + 8);
}
""",
}


def _corpus():
    """(name, module, function) triples covering compiled and
    specialized code, including unoptimized specializer output."""
    entries = []
    for name, src in CORPUS_SRC.items():
        module = Module(memory_size=4096)
        compile_source(src).add_to_module(module)
        entries.append((name, module, module.functions[name]))
    program = sum_to_n_program(10)
    for use_intrinsics in (False, True):
        module = build_min_module(program)
        variant = "state" if use_intrinsics else "plain"
        func = specialize_min(module, program, use_intrinsics, options=O0,
                              name=f"spec_{variant}")
        entries.append((f"spec_{variant}", module, func))
    return entries


_CORPUS = _corpus()


class TestSpecializerOutputVerifies:
    @pytest.mark.parametrize("use_intrinsics", [False, True],
                             ids=["plain", "state"])
    @pytest.mark.parametrize("opt_config", ["none", "default"],
                             ids=["O0", "full"])
    def test_specialized_function_verifies(self, use_intrinsics,
                                           opt_config):
        program = sum_to_n_program(25)
        module = build_min_module(program)
        options = SpecializeOptions(opt_config=opt_config)
        func = specialize_min(module, program, use_intrinsics,
                              options=options, name="spec")
        verify_function(func, module)


# Every pass of the mid-end, plus the CFG sub-passes ``simplify-cfg``
# is made of.
ISOLATED_PASSES = dict(PASSES) | {
    "remove-unreachable": remove_unreachable_blocks,
    "thread-jumps": thread_jumps,
}


class TestEveryPassPreservesValidity:
    @pytest.mark.parametrize("corpus_name",
                             [name for name, _, _ in _CORPUS])
    @pytest.mark.parametrize("pass_name", sorted(ISOLATED_PASSES))
    def test_pass_in_isolation(self, pass_name, corpus_name):
        module, original = next((m, f) for name, m, f in _CORPUS
                                if name == corpus_name)
        func = clone(original, module)
        ISOLATED_PASSES[pass_name](func)
        verify_after_pass(func, module, pass_name)


# ---------------------------------------------------------------------------
# Malformed functions must be rejected with precise errors.
# ---------------------------------------------------------------------------

def _valid_function():
    """``f(x) = x + 1`` and the id of its sum."""
    return parse_function("""\
func @f(v0: i64) -> i64 {
block0:
  v1 = iconst 1
  v2 = iadd v0, v1
  return v2
}"""), 2


class TestMalformedRejected:
    def test_valid_baseline_passes(self):
        func, _ = _valid_function()
        verify_function(func)

    def test_use_before_def_same_block(self):
        func, y = _valid_function()
        entry = func.entry_block()
        # Move the use above the definition of its operand.
        entry.instrs.insert(0, Instr("iadd", func.new_value(I64),
                                     (y, y), None, I64))
        with pytest.raises(VerificationError, match="used before defined"):
            verify_function(func)

    def test_use_not_dominating_across_blocks(self):
        func = parse_function("""\
func @f(v0: i64) -> i64 {
block0:
  br_if v0, block1, block2
block1:
  v1 = iconst 3
  jump block3
block2:
  jump block3
block3:
  return v1
}""")  # v1 is defined only on the left path
        with pytest.raises(VerificationError, match="does not dominate"):
            verify_function(func)

    def test_bad_branch_arity(self):
        func = parse_function("""\
func @f(v0: i64) -> i64 {
block0:
  jump block1(v0)
block1(v1: i64):
  return v1
}""")
        # Drop the branch argument: arity no longer matches the params.
        func.entry_block().terminator = Jump(BlockCall(1, ()))
        with pytest.raises(VerificationError,
                           match=r"passes 0 args, expects 1"):
            verify_function(func)

    def test_dangling_block_reference(self):
        func, _ = _valid_function()
        func.entry_block().terminator = Jump(BlockCall(999, ()))
        with pytest.raises(VerificationError, match="unknown block999"):
            verify_function(func)

    def test_missing_terminator(self):
        func, _ = _valid_function()
        func.entry_block().terminator = None
        with pytest.raises(VerificationError, match="lacks a terminator"):
            verify_function(func)

    def test_operand_type_mismatch(self):
        func = parse_function("""\
func @f() -> i64 {
block0:
  v0 = fconst 1.5
  v1 = iconst 0
  return v1
}""")
        # iadd over an f64 operand.
        func.entry_block().instrs.append(
            Instr("iadd", func.new_value(I64), (0, 0), None, I64))
        with pytest.raises(VerificationError, match="expected i64"):
            verify_function(func)

    def test_double_definition(self):
        func, y = _valid_function()
        entry = func.entry_block()
        entry.instrs.append(Instr("iconst", y, (), 5, I64))
        with pytest.raises(VerificationError, match="defined twice"):
            verify_function(func)

    def test_unknown_opcode(self):
        func, _ = _valid_function()
        func.entry_block().instrs.append(
            Instr("bogus", func.new_value(I64), (), None, I64))
        with pytest.raises(VerificationError, match="unknown opcode"):
            verify_function(func)


# ---------------------------------------------------------------------------
# The mid-end's verify mode pins failures to the offending pass.
# ---------------------------------------------------------------------------

class TestVerifyMode:
    @pytest.fixture(autouse=True)
    def _verify(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_VERIFY", "1")

    def test_broken_pass_is_caught_and_named(self, monkeypatch):
        def clobber(func):
            # Delete the first instruction with a result that is still
            # used: a classic broken-rewrite bug.
            for block in func.blocks.values():
                for i, instr in enumerate(block.instrs):
                    if instr.result is not None:
                        del block.instrs[i]
                        return 1
            return 0

        func, _ = _valid_function()
        monkeypatch.setattr(pipeline, "PASSES", (("clobber", clobber),))
        with pytest.raises(VerificationError, match="clobber"):
            optimize_function(func)

    def test_fixpoint_cap_recorded_and_warned(self, monkeypatch):
        def fidget(func):
            return 1  # reports change forever

        func, _ = _valid_function()
        monkeypatch.setattr(pipeline, "PASSES", (("fidget", fidget),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = optimize_function(func)
        assert stats.fixpoint_cap_hits == 1
        assert stats.rounds == OPT_MAX_ROUNDS
        assert stats.per_pass["fidget"].runs == OPT_MAX_ROUNDS
        assert any("fixpoint not reached" in str(w.message) for w in caught)

    def test_fixpoint_reached_not_flagged(self):
        func, _ = _valid_function()
        stats = optimize_function(func)
        assert stats.fixpoint_cap_hits == 0
        assert stats.per_pass["gvn"].runs >= 1
        # "none" runs no pass, so it has no round to run.
        assert optimize_function(func, "none").rounds == 0
