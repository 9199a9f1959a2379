"""Unit tests for weval's building blocks: contexts, the lattice,
constant memory, flow-state meets, and intrinsic registration."""

import itertools
import math

import pytest

from repro.core import context as ctx
from repro.core.intrinsics import INTRINSICS, intrinsic_name, register_weval_imports
from repro.core.lattice import (
    Const,
    ConstMemoryImage,
    Dyn,
    fold_pure_op,
    intern_const,
)
from repro.core.state import (
    FlowState,
    LocalSlot,
    StackSlot,
    descends,
    meet_states,
    states_equal,
)
from repro.ir import I64, F64, Module
from repro.ir.instructions import wrap_i64
from repro.ir.semantics import LOADS, _bits_ftoi, _bits_itof

from tests.helpers import FLOAT_BIT_PATTERNS


class TestContexts:
    """A context is the tuple of its values, innermost last, and each
    distinct one is a single interned tuple."""

    def test_push_update_pop(self):
        c = ctx.push(ctx.ROOT, 5)
        assert c == (5,)
        c = ctx.update(c, 9)
        assert c == (9,)
        assert ctx.pop(c) is ctx.ROOT

    def test_nesting(self):
        c = ctx.push(ctx.push(ctx.ROOT, 1), 2)
        assert c == (1, 2)
        assert ctx.update(c, 3) == (1, 3)
        assert ctx.pop(c) is ctx.push(ctx.ROOT, 1)

    def test_pop_empty_raises(self):
        with pytest.raises(ValueError):
            ctx.pop(ctx.ROOT)

    def test_update_without_push_tolerated(self):
        assert ctx.update(ctx.ROOT, 4) is ctx.push(ctx.ROOT, 4)

    def test_dynamic_is_one_more_value(self):
        c = ctx.update(ctx.push(ctx.ROOT, 1), ctx.DYNAMIC)
        assert c == (ctx.DYNAMIC,)
        assert ctx.push(c, 2) == (ctx.DYNAMIC, 2)

    def test_each_distinct_context_is_one_tuple(self):
        """Push, update and pop each hand out the interned tuple, so two
        ways to the same context give the same object."""
        inner = ctx.push(ctx.ROOT, 7)
        assert ctx.update(ctx.push(ctx.ROOT, 3), 7) is inner
        assert ctx.pop(ctx.push(inner, 8)) is inner
        assert ctx.push(ctx.ROOT, ctx.DYNAMIC) is ctx.update(
            inner, ctx.DYNAMIC)


class TestAbsValEquality:
    """A constant is its bit pattern: ``Const`` equality, hashing and
    interning compare ``(bits, ty)``, never float ``==``."""

    def test_interned_identity_fast_path(self):
        assert intern_const(7, I64) is intern_const(7, I64)
        assert Const(7, I64) == Const(7, I64)
        assert Const(7, I64) != Const(8, I64)
        assert Dyn(3, I64) == Dyn(3, I64)
        assert Dyn(3, I64) != Dyn(3, F64)
        assert Const(0, I64) != Dyn(0, I64)

    def test_signed_zeros_differ(self):
        assert Const(0.0, F64) != Const(-0.0, F64)
        assert intern_const(0.0, F64) is not intern_const(-0.0, F64)
        assert Const(0, I64) != Const(0.0, F64)

    def test_nans_are_equal_by_payload(self):
        # Fresh float objects each time: identity plays no part.
        assert Const(_bits_itof(0x7FF8000000000001), F64) == Const(
            _bits_itof(0x7FF8000000000001), F64)
        assert Const(math.nan, F64) == Const(float("nan"), F64)
        assert Const(_bits_itof(0x7FF8000000000001), F64) != Const(
            _bits_itof(0x7FF8000000000002), F64)

    def test_hashes_agree_with_equality(self):
        consts = [Const(_bits_itof(bits), F64) for bits in FLOAT_BIT_PATTERNS]
        for a, b in itertools.product(consts, repeat=2):
            assert (a == b) == (a.bits == b.bits)
            if a == b:
                assert hash(a) == hash(b)

    @pytest.mark.parametrize("bits", FLOAT_BIT_PATTERNS,
                             ids=lambda b: f"{b:#018x}")
    def test_intern_covers_f64(self, bits):
        const = intern_const(_bits_itof(bits), F64)
        assert const is intern_const(_bits_itof(bits), F64)
        assert const.bits == bits


class TestConstMemory:
    def test_reads_inside_ranges_fold(self):
        snapshot = bytearray(64)
        snapshot[8:16] = (1234).to_bytes(8, "little")
        image = ConstMemoryImage(bytes(snapshot), [(8, 16)])
        assert image.read(8, LOADS["load64"]) == 1234
        assert image.read(0, LOADS["load64"]) is None  # outside
        assert image.read(20, LOADS["load64"]) is None  # straddles end

    def test_signed_narrow_read(self):
        snapshot = bytes([0xFF] + [0] * 15)
        image = ConstMemoryImage(snapshot, [(0, 8)])
        assert image.read(0, LOADS["load8_s"]) == wrap_i64(-1)
        assert image.read(0, LOADS["load8_u"]) == 0xFF

    @pytest.mark.parametrize("bits", FLOAT_BIT_PATTERNS,
                             ids=lambda b: f"{b:#018x}")
    def test_f64_reads_keep_every_bit(self, bits):
        image = ConstMemoryImage(bits.to_bytes(8, "little"), [(0, 8)])
        assert _bits_ftoi(image.read(0, LOADS["loadf64"])) == bits

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ConstMemoryImage(bytes(8), [(0, 64)])


class TestFold:
    def test_division_by_zero_refuses(self):
        assert fold_pure_op("idiv_u", None, [5, 0]) is None
        assert fold_pure_op("irem_s", None, [5, 0]) is None

    def test_select(self):
        assert fold_pure_op("select", None, [1, 10, 20]) == 10
        assert fold_pure_op("select", None, [0, 10, 20]) == 20

    def test_float_bits_roundtrip(self):
        bits = fold_pure_op("bits_ftoi", None, [1.5])
        assert fold_pure_op("bits_itof", None, [bits]) == 1.5


def _meet(contributions, env_domain, naive=False, prior_depth=None):
    params = {}

    def param_for(slot, ty):
        return params.setdefault(slot, 1000 + len(params))

    return meet_states(contributions, env_domain, lambda v: I64,
                       param_for, naive=naive,
                       prior_depth=prior_depth), params


def _with_stack(depth):
    state = FlowState()
    state.stack = [StackSlot(Const(8 * pos, I64), Const(pos, I64), True)
                   for pos in range(depth)]
    return state


class TestMeet:
    def test_agreeing_bindings_pass_through(self):
        a = FlowState()
        a.env[1] = Const(5, I64)
        b = FlowState()
        b.env[1] = Const(5, I64)
        result, params = _meet([(a, {}), (b, {})], {1})
        assert result.state.env[1] == Const(5, I64)
        assert not params

    def test_disagreeing_bindings_become_params(self):
        a = FlowState()
        a.env[1] = Const(5, I64)
        b = FlowState()
        b.env[1] = Const(6, I64)
        result, params = _meet([(a, {}), (b, {})], {1})
        assert isinstance(result.state.env[1], Dyn)
        assert ("env", 1) in params

    def test_overrides_take_precedence(self):
        a = FlowState()
        a.env[1] = Const(5, I64)
        result, _ = _meet([(a, {1: Const(9, I64)})], {1})
        assert result.state.env[1] == Const(9, I64)

    def test_registers_zero_fill(self):
        a = FlowState()
        a.regs[3] = Const(7, I64)
        b = FlowState()  # register 3 unwritten: defaults to 0
        result, params = _meet([(a, {}), (b, {})], set())
        assert isinstance(result.state.regs[3], Dyn)

    def test_locals_intersect_and_dirty_ors(self):
        a = FlowState()
        a.locals[0] = LocalSlot(Dyn(1, I64), Const(5, I64), True)
        a.locals[1] = LocalSlot(Dyn(2, I64), Const(6, I64), False)
        b = FlowState()
        b.locals[0] = LocalSlot(Dyn(1, I64), Const(5, I64), False)
        result, _ = _meet([(a, {}), (b, {})], set())
        assert 0 in result.state.locals and 1 not in result.state.locals
        assert result.state.locals[0].dirty  # OR of dirty flags

    def test_stack_depth_mismatch_drops_all(self):
        a = FlowState()
        a.stack.append(StackSlot(Dyn(1, I64), Const(5, I64), True))
        b = FlowState()
        result, _ = _meet([(a, {}), (b, {})], set())
        assert result.state.stack == []

    def test_naive_mode_parameterizes_everything(self):
        a = FlowState()
        a.env[1] = Const(5, I64)
        result, params = _meet([(a, {})], {1}, naive=True)
        assert isinstance(result.state.env[1], Dyn)
        assert params

    def test_prior_depth_keeps_a_dropped_stack_dropped(self):
        contributions = [(_with_stack(1), {}), (_with_stack(1), {})]
        result, _ = _meet(contributions, set(), prior_depth=0)
        assert result.state.stack == []

    def test_contribution_order_does_not_matter(self):
        """A constant is its bits, so the meet is the same over the
        contributions in either order: ±0 become a parameter, NaNs of one
        payload (different objects) stay a constant."""
        a, b = FlowState(), FlowState()
        a.env[1], b.env[1] = Const(0.0, F64), Const(-0.0, F64)
        a.env[2] = Const(_bits_itof(0x7FF8000000000001), F64)
        b.env[2] = Const(_bits_itof(0x7FF8000000000001), F64)
        a.regs[0] = Const(5, I64)
        forward, params = _meet([(a, {}), (b, {})], {1, 2})
        backward, _ = _meet([(b, {}), (a, {})], {1, 2})
        assert states_equal(forward.state, backward.state)
        assert forward.param_slots == backward.param_slots == [
            ("env", 1), ("reg", 0)]
        assert forward.state.env[1] == Dyn(params[("env", 1)], I64)
        assert forward.state.env[2] == a.env[2]

    def test_equal_prior_depth_keeps_the_stack(self):
        contributions = [(_with_stack(1), {}), (_with_stack(1), {})]
        result, _ = _meet(contributions, set(), prior_depth=1)
        assert result.state.stack == _with_stack(1).stack


class TestDescends:
    """The order the fixpoint descends in: a constant may become a
    parameter, a parameter may be renamed, and locals and the stack may
    only be lost or dirtied."""

    @staticmethod
    def _state(value=None, local=None, depth=0):
        state = _with_stack(depth)
        if value is not None:
            state.env[1] = value
        if local is not None:
            state.locals[0] = local
        return state

    @pytest.mark.parametrize("old,new,ok", [
        (Const(5, I64), Dyn(7, I64), True),       # const -> dyn
        (Dyn(7, I64), Dyn(8, I64), True),         # dyn -> dyn rename
        (Dyn(7, I64), Const(5, I64), False),      # dyn -> const
        (Const(5, I64), Const(6, I64), False),
    ])
    def test_env_bindings(self, old, new, ok):
        assert descends(self._state(old), self._state(new)) is ok

    def test_locals(self):
        clean = LocalSlot(Const(64, I64), Const(5, I64), False)
        dirty = LocalSlot(Const(64, I64), Const(5, I64), True)
        assert not descends(self._state(), self._state(local=clean))
        assert descends(self._state(local=clean), self._state())
        assert descends(self._state(local=clean), self._state(local=dirty))
        assert not descends(self._state(local=dirty),
                            self._state(local=clean))

    def test_stack(self):
        assert descends(self._state(depth=2), self._state(depth=0))
        assert descends(self._state(depth=2), self._state(depth=2))
        assert not descends(self._state(depth=0), self._state(depth=1))
        assert not descends(self._state(depth=1), self._state(depth=2))


class TestIntrinsicRegistry:
    def test_names_and_kinds(self):
        assert intrinsic_name("update_context") == "weval.update_context"
        with pytest.raises(KeyError):
            intrinsic_name("bogus")

    def test_registration_is_idempotent(self):
        module = Module(memory_size=64)
        register_weval_imports(module)
        count = len(module.imports)
        register_weval_imports(module)
        assert len(module.imports) == count
        assert count == len(INTRINSICS)


class TestStatsMerge:
    """One ``merge()`` for the five stats dataclasses: numeric fields
    add, nested stats recurse, ``per_pass`` merges by key."""

    @staticmethod
    def _filled(cls, start):
        """An instance whose numeric fields count up from ``start``."""
        import dataclasses
        stats = cls()
        for offset, field in enumerate(dataclasses.fields(cls)):
            if isinstance(getattr(stats, field.name), (int, float)):
                setattr(stats, field.name, start + offset)
        return stats

    def test_numeric_fields_add(self):
        import dataclasses

        from repro.core.stats import EngineStats, PassStats, TieringStats
        for cls in (PassStats, TieringStats, EngineStats):
            mine, theirs = self._filled(cls, 3), self._filled(cls, 100)
            expected = {
                f.name: getattr(mine, f.name) + getattr(theirs, f.name)
                for f in dataclasses.fields(cls)}
            mine.merge(theirs)
            assert dataclasses.asdict(mine) == expected

    def test_nested_stats_recurse_and_per_pass_merges_by_key(self):
        from repro.core.stats import (
            PassStats,
            PipelineStats,
            SpecializationStats,
        )
        mine = self._filled(SpecializationStats, 1)
        mine.opt = self._filled(PipelineStats, 10)
        mine.opt.per_pass = {"dce": PassStats(1, 2, 0.5),
                             "gvn": PassStats(4, 5, 1.0)}
        theirs = self._filled(SpecializationStats, 50)
        theirs.opt = self._filled(PipelineStats, 70)
        theirs.opt.per_pass = {"gvn": PassStats(1, 1, 0.25),
                               "fold": PassStats(7, 8, 2.0)}
        blocks = mine.output_blocks + theirs.output_blocks
        rounds = mine.opt.rounds + theirs.opt.rounds
        mine.merge(theirs)
        assert mine.output_blocks == blocks and mine.opt.rounds == rounds
        assert mine.opt.per_pass == {"dce": PassStats(1, 2, 0.5),
                                     "gvn": PassStats(5, 6, 1.25),
                                     "fold": PassStats(7, 8, 2.0)}
        # The merged-in side is left alone, and no entry is shared.
        assert theirs.opt.per_pass["fold"] == PassStats(7, 8, 2.0)
        assert mine.opt.per_pass["fold"] is not theirs.opt.per_pass["fold"]
