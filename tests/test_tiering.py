"""Unit tests for the runtime tiering subsystem.

Covers the pieces the differential tier exercises only end-to-end:

* the ``guard`` instruction's verifier placement rule: an entry guard
  (``int`` immediate, the only guard that unwinds) sits in the entry
  block, which no branch re-enters, ahead of any store, call or
  ``global_set``; a site guard ``(site, values)`` resumes in place on a
  miss and may sit anywhere;
* VM deopt mechanics — counter rollback, fallback dispatch, and the
  exactness of the "as if never specialized" contract on both
  execution backends;
* :class:`~repro.pipeline.tiering.TieringController` policy: hot-call
  promotion, loop-backedge scoring, staged tier-2, demote-exactly-once
  after a guard failure, and artifact-store sharing between the AOT
  and tiered flows;
* helpers (``repro.pipeline.engine``) on the tiered road: ``lua_call``
  is installed in the same ``install_compiled`` call as the first
  residual that needs it, threshold 1 stays AOT and threshold ∞ the
  interpreter, and no MiniJS residual can reach a helper because every
  function the JS interpreters call by name loops.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SpeculatedConst, SpecializationRequest
from repro.core.request import Runtime, SpecializedConst, SpecializedMemory
from repro.core.specialize import SpecializeOptions, specialize
from repro.backend import (
    BackendError,
    compile_python_source,
    emit_function_source,
)
from repro.ir import parse_function
from repro.ir.cfg import retreating_edges
from repro.ir.verifier import VerificationError, verify_function
from repro.luavm.runtime import LuaRuntime
from repro.min.harness import make_tiered_min, sum_to_n_program
from repro.min.interp import PROGRAM_BASE, build_min_module
from repro.pipeline import tiering
from repro.vm import VM
from repro.vm.machine import GuardFailed

from tests.helpers import compile_py, corpus_program


LUA_FIB = corpus_program("lua/fib.lua")


def _args(program, value):
    return [PROGRAM_BASE, len(program.words), value]


# ---------------------------------------------------------------------------
# Verifier rules for guards.
# ---------------------------------------------------------------------------

def _guard_func(guard_block: str = "entry", after_store: bool = False,
                imm=7):
    """``g(p)``: ``guard expect imm p`` in the entry block or in the
    block it jumps to, after a ``store64`` in the entry when
    ``after_store``; returns ``p``."""
    store = ["  store64 v0, v0"] if after_store else []
    guard = [f"  guard expect {imm} v0"]
    entry, other = (store + guard, []) if guard_block == "entry" \
        else (store, guard)
    return parse_function("\n".join((
        "func @g(v0: i64) -> i64 {",
        "block0:",
        *entry,
        "  jump block1",
        "block1:",
        *other,
        "  return v0",
        "}")))


class TestGuardVerification:
    def test_entry_guard_accepted(self):
        verify_function(_guard_func())

    def test_mid_function_guard_with_clean_prefix_rejected(self):
        # An entry guard belongs to the entry block, however clean the
        # path to a later block is.
        with pytest.raises(VerificationError, match="not at function entry"):
            verify_function(_guard_func(guard_block="other"))

    def test_guard_after_side_effect_rejected(self):
        with pytest.raises(VerificationError, match="not at function entry"):
            verify_function(_guard_func(after_store=True))

    def test_mid_function_guard_after_effectful_path_rejected(self):
        with pytest.raises(VerificationError, match="not at function entry"):
            verify_function(_guard_func(guard_block="other",
                                        after_store=True))

    def test_entry_guard_in_a_loop_header_rejected(self):
        """``g(p)``: ``guard p == 7``; ``store64 [64], p``; ``br_if
        p == 1, exit, g.entry(p + 1)``.  The store precedes the guard on
        the second trip, so a deopt there would re-run the generic body
        after an observable effect: the entry block may hold an entry
        guard only while no branch enters it."""
        func = parse_function("""\
func @g(v0: i64) -> i64 {
block0:
  guard expect 7 v0
  v1 = iconst 64
  store64 v1, v0
  v2 = iconst 1
  v3 = ieq v0, v2
  v4 = iadd v0, v2
  br_if v3, block1, block0(v4)
block1:
  return v0
}""")
        with pytest.raises(VerificationError, match="not at function entry"):
            verify_function(func)

    def test_resuming_guard_after_side_effect_accepted(self):
        # A site guard's miss notifies and falls through: nothing is
        # abandoned, so an effectful prefix is fine.
        verify_function(_guard_func(guard_block="other", after_store=True,
                                    imm=(0, (7,))))

    def test_polymorphic_guard_with_clean_prefix_accepted(self):
        verify_function(_guard_func(imm=(2, (3, 9))))

    def test_guard_imm_must_be_u64(self):
        func = _guard_func()
        func.entry_block().instrs[0].imm = "nope"
        with pytest.raises(VerificationError, match="guard imm"):
            verify_function(func)

    @pytest.mark.parametrize("imm", [
        (-1, (3,)),               # negative site
        (0, ()),                  # empty value set
        (0, (9, 3)),              # not strictly increasing
        (0, (3, 3)),              # duplicate
        (0, (1 << 64,)),          # out of u64 range
        (0, (3,), "retry"),       # wrong arity
        (0, (3,), "resume", 4),   # wrong arity
        (0, (3,), "resume"),      # the retired resuming tag
    ])
    def test_bad_polymorphic_imms_rejected(self, imm):
        with pytest.raises(VerificationError, match="guard"):
            verify_function(_guard_func(imm=imm))

    def test_speculated_residual_verifies(self):
        program = sum_to_n_program(5)
        module = build_min_module(program)
        request = SpecializationRequest(
            "min_interp",
            [SpecializedMemory(PROGRAM_BASE, program.size_bytes()),
             SpecializedConst(len(program.words)),
             SpeculatedConst(3)],
            specialized_name="spec_g")
        func = specialize(module, request, SpecializeOptions(backend="vm"))
        verify_function(func, module)
        assert any(i.op == "guard" for i in func.entry_block().instrs)


# ---------------------------------------------------------------------------
# VM deopt mechanics.
# ---------------------------------------------------------------------------

class TestDeopt:
    @pytest.fixture()
    def guarded_module(self):
        program = sum_to_n_program(20)
        module = build_min_module(program)
        request = SpecializationRequest(
            "min_interp",
            [SpecializedMemory(PROGRAM_BASE, program.size_bytes()),
             SpecializedConst(len(program.words)),
             SpeculatedConst(0)],
            specialized_name="spec_g")
        func = specialize(module, request, SpecializeOptions(backend="vm"))
        module.add_function(func)
        return program, module

    def test_unregistered_guard_failure_propagates(self, guarded_module):
        """Without a registered fallback a failed guard is loud, not
        silently wrong."""
        program, module = guarded_module
        vm = VM(module)
        with pytest.raises(GuardFailed):
            vm.call("spec_g", _args(program, 1))

    def test_deopt_is_observably_generic(self, guarded_module):
        """A deopted call matches the generic call in result AND every
        execution counter (fuel, loads, stores): the speculative prefix
        is rolled back in full."""
        program, module = guarded_module
        vm = VM(module)
        vm.deopt_fallbacks["spec_g"] = "min_interp"
        result = vm.call("spec_g", _args(program, 5))
        ref = VM(module)
        expected = ref.call("min_interp", _args(program, 5))
        assert result == expected
        assert vm.stats.fuel == ref.stats.fuel
        assert vm.stats.loads == ref.stats.loads
        assert vm.stats.stores == ref.stats.stores

    def test_deopt_from_compiled_backend(self, guarded_module):
        """GuardFailed raised inside tier-2 compiled code unwinds at the
        same boundary with the same rollback."""
        program, module = guarded_module
        source = emit_function_source(module.functions["spec_g"], module)[0]
        assert "GuardFailed" in source
        vm = VM(module)
        vm.install_compiled(
            {"spec_g": compile_python_source("spec_g", source)})
        vm.deopt_fallbacks["spec_g"] = "min_interp"
        seen = []
        vm.deopt_hook = lambda name: seen.append(name)
        ref = VM(module)
        assert vm.call("spec_g", _args(program, 5)) == \
            ref.call("min_interp", _args(program, 5))
        assert vm.stats.fuel == ref.stats.fuel
        assert seen == ["spec_g"]

    def test_guard_pass_runs_specialized(self, guarded_module):
        program, module = guarded_module
        vm = VM(module)
        vm.deopt_fallbacks["spec_g"] = "min_interp"
        result = vm.call("spec_g", _args(program, 0))
        ref = VM(module)
        assert result == ref.call("min_interp", _args(program, 0))
        assert vm.stats.fuel < ref.stats.fuel  # actually ran tier 1


# ---------------------------------------------------------------------------
# Nested deopt: a guard failure inside another guarded frame.
# ---------------------------------------------------------------------------

_COUNTER = 256  # heap cell outer bumps before calling inner (side effect)


def _nested_inner(name, guarded):
    """x -> x + 1, optionally behind ``guard x == 7``."""
    return parse_function("\n".join((
        f"func @{name}(v0: i64) -> i64 {{",
        "block0:",
        *(["  guard expect 7 v0"] if guarded else []),
        "  v1 = iconst 1",
        "  v2 = iadd v0, v1",
        "  return v2",
        "}")))


def _nested_outer(name, guarded, module):
    """y -> inner_spec(y) + 10, bumping the _COUNTER cell first.

    The counter store is the observable side effect that must NOT run
    twice when the *inner* call's guard fails."""
    return parse_function("\n".join((
        f"func @{name}(v0: i64) -> i64 {{",
        "block0:",
        *(["  guard expect 3 v0"] if guarded else []),
        f"  v1 = iconst {_COUNTER}",
        "  v2 = load64 v1",
        "  v3 = iconst 1",
        "  v4 = iadd v2, v3",
        "  store64 v1, v4",
        "  v5 = call @inner_spec v0",
        "  v6 = iconst 10",
        "  v7 = iadd v5, v6",
        "  return v7",
        "}")), module)


def _nested_module():
    from repro.ir.module import Module
    module = Module(memory_size=4096)
    module.add_function(_nested_inner("inner_gen", guarded=False))
    module.add_function(_nested_inner("inner_spec", guarded=True))
    module.add_function(_nested_outer("outer_gen", False, module))
    module.add_function(_nested_outer("outer_spec", True, module))
    return module


class TestNestedDeopt:
    """GuardFailed unwinding out of a guarded call *nested inside
    another guarded frame* must deopt the inner boundary (or propagate
    loudly), never roll back the outer frame — by the time the nested
    call runs, the outer body's side effects are already observable."""

    def _install_compiled(self, vm, module, names):
        vm.install_compiled({
            name: compile_py(module.functions[name], module)[0]
            for name in names})

    @pytest.mark.parametrize("backend", ["vm", "py"])
    def test_inner_deopt_leaves_outer_frame_alone(self, backend):
        """Both boundaries registered: the inner guard failure deopts at
        the inner boundary; the outer specialized frame completes with
        its side effect executed exactly once, and the result matches
        the fully generic execution."""
        module = _nested_module()
        ref_vm = VM(_nested_module())
        ref_vm.deopt_fallbacks["inner_spec"] = "inner_gen"
        expected = ref_vm.call("outer_gen", [3])

        vm = VM(module)
        vm.deopt_fallbacks["outer_spec"] = "outer_gen"
        vm.deopt_fallbacks["inner_spec"] = "inner_gen"
        if backend == "py":
            self._install_compiled(vm, module,
                                   ["outer_spec", "inner_spec"])
        deopts = []
        vm.deopt_hook = lambda name: deopts.append(name)
        assert vm.call("outer_spec", [3]) == expected
        assert deopts == ["inner_spec"]  # inner boundary, exactly once
        assert vm.load_u64(_COUNTER) == 1  # outer side effect not redone

    @pytest.mark.parametrize("backend", ["vm", "py"])
    def test_foreign_guard_failure_is_reraised(self, backend):
        """Inner boundary unregistered: its failure must propagate out
        of the outer guarded frame, not masquerade as the outer guard
        failing (which would re-run the outer body's side effects)."""
        module = _nested_module()
        vm = VM(module)
        vm.deopt_fallbacks["outer_spec"] = "outer_gen"
        if backend == "py":
            self._install_compiled(vm, module,
                                   ["outer_spec", "inner_spec"])
        deopts = []
        vm.deopt_hook = lambda name: deopts.append(name)
        with pytest.raises(GuardFailed) as excinfo:
            vm.call("outer_spec", [3])
        assert excinfo.value.function == "inner_spec"
        assert deopts == []  # the outer boundary did not claim it
        assert vm.load_u64(_COUNTER) == 1  # outer body ran exactly once

    def test_counter_rollback_scoped_to_inner_call(self):
        """Fuel/load/store rollback on a nested deopt covers only the
        inner call: the run is counter-identical to one where the inner
        function was never specialized."""
        module = _nested_module()
        ref_vm = VM(module)
        ref_vm.deopt_fallbacks["outer_spec"] = "outer_gen"
        # Reference: outer specialized, inner generic from the start.
        ref_module = _nested_module()
        ref_module.functions["inner_spec"] = \
            _nested_inner("inner_spec", guarded=False)
        ref = VM(ref_module)
        expected = ref.call("outer_spec", [3])
        vm = VM(module)
        vm.deopt_fallbacks["outer_spec"] = "outer_gen"
        vm.deopt_fallbacks["inner_spec"] = "inner_gen"
        assert vm.call("outer_spec", [3]) == expected
        # Identical up to the inner guard's own (rolled back) fuel.
        assert vm.stats.loads == ref.stats.loads
        assert vm.stats.stores == ref.stats.stores


# ---------------------------------------------------------------------------
# Controller policy.
# ---------------------------------------------------------------------------

class TestControllerPolicy:
    def test_never_promotes_below_threshold(self, monkeypatch):
        # Neutralize loop scoring (tested separately) so the policy
        # under test is purely the call counter.
        monkeypatch.setattr(tiering, "BACKEDGE_WEIGHT", 1 << 30)
        program = sum_to_n_program(3)
        vm, controller = make_tiered_min(program, threshold=10)
        for _ in range(9):
            vm.call("min_interp", _args(program, 0))
        assert controller.stats.promotions == 0
        vm.call("min_interp", _args(program, 0))
        assert controller.stats.promotions == 1
        assert controller.tier_counts()[0] == 0

    def test_backedge_score_promotes_loopy_function(self):
        """One call of a long loop crosses the threshold via the loop
        counters, so the *second* call already runs specialized."""
        program = sum_to_n_program(4000)  # ~5 backedge-weights of spins
        vm, controller = make_tiered_min(
            program, threshold=3, options=SpecializeOptions(backend="vm"))
        vm.call("min_interp", _args(program, 0))
        assert controller.stats.promotions == 0
        vm.call("min_interp", _args(program, 0))
        assert controller.stats.promotions == 1
        profile = next(iter(controller.profiles.values()))
        assert profile.backedges > 0 and profile.calls == 2

    def test_staged_tier2_defers_backend_compile(self):
        program = sum_to_n_program(50)
        options = SpecializeOptions(backend="py")
        vm, controller = make_tiered_min(
            program, threshold=2, options=options, compile_threshold=3)
        profile = next(iter(controller.profiles.values()))
        results = []
        for i in range(8):
            results.append(vm.call("min_interp", _args(program, 0)))
            if i < 1:
                assert profile.tier == 0
            elif i < 4:
                assert profile.tier == 1  # promoted, backend deferred
        assert profile.tier == 2
        assert controller.stats.tier2_installs == 1
        assert profile.installed_name in vm.compiled
        assert len(set(results)) == 1

    def test_staged_tier2_emit_failure_is_quarantined_then_blacklisted(
            self, monkeypatch):
        """A staged emit that always fails (a deterministic emitter bug)
        is a contained compile failure, not a verdict: quarantined,
        retried after backoff, and blacklisted to tier 0 after
        ``MAX_COMPILE_FAILURES`` attempts.  Results never change, and
        the transition table holds after every step."""
        import repro.backend

        def broken_emit(func, module=None):
            raise BackendError(f"{func.name}: simulated emitter bug")

        monkeypatch.setattr(repro.backend, "emit_function_source",
                            broken_emit)
        monkeypatch.setenv("REPRO_OPT_VERIFY", "1")
        program = sum_to_n_program(30)
        vm, controller = make_tiered_min(
            program, threshold=2, options=SpecializeOptions(backend="py"),
            compile_threshold=2)
        ref = VM(build_min_module(program))
        for _ in range(60):
            assert vm.call("min_interp", _args(program, 5)) == \
                ref.call("min_interp", _args(program, 5))
        profile = next(iter(controller.profiles.values()))
        stats = controller.stats
        assert profile.blacklisted and profile.tier == 0
        assert stats.compile_failures == tiering.MAX_COMPILE_FAILURES
        assert (stats.quarantines, stats.quarantine_retries,
                stats.quarantine_recoveries, stats.blacklists) == (1, 2, 0, 1)
        assert stats.tier2_installs == 0
        assert controller.compiler.engine.stats.requests_failed \
            == tiering.MAX_COMPILE_FAILURES
        controller.check_invariants()

    def test_demotes_exactly_once(self):
        program = sum_to_n_program(25)
        vm, controller = make_tiered_min(
            program, threshold=2, speculate=True,
            options=SpecializeOptions(backend="vm"))
        ref = VM(build_min_module(program))
        for value in (3, 3, 9, 3, 9, 9):
            assert vm.call("min_interp", _args(program, value)) == \
                ref.call("min_interp", _args(program, value))
        assert controller.stats.speculative_promotions == 1
        assert controller.stats.demotions == 1
        # The respecialized plain residual carries no guards: further
        # input changes cause no deopts.
        assert controller.stats.deopts == 1

    def test_lua_frame_speculation_deopts_on_deeper_call(self):
        """A function promoted with a speculated frame pointer deopts
        when later called from a different stack depth — mid-workload,
        with identical output."""
        source = "\n".join([
            "function leaf(x)",
            "  return x + 1",
            "end",
            "function mid(x)",
            "  return leaf(x) * 10",
            "end",
            "local t = 0",
            "for i = 1, 6 do",
            "  t = t + leaf(i)",
            "end",
            "t = t + mid(3)",
            "print(t)",
        ])
        ref = LuaRuntime(source)
        ref.run_interpreted()
        runtime = LuaRuntime(source,
                             options=SpecializeOptions(backend="vm"))
        runtime.run_tiered(threshold=4, speculate=True)
        assert runtime.printed == ref.printed
        stats = runtime.controller.stats
        assert stats.speculative_promotions >= 1
        assert stats.deopts >= 1
        assert stats.demotions == 1

    def test_aot_and_tiered_share_artifact_store(self, tmp_path):
        """Dynamic promotion against a store warmed by pure AOT compiles
        zero fresh functions — the flows share cache keys."""
        program = sum_to_n_program(40)
        cache_dir = str(tmp_path)
        options = SpecializeOptions(backend="vm", cache_dir=cache_dir)
        # Warm: pure AOT (promote_all) writes the artifacts.
        vm_a, controller_a = make_tiered_min(program, options=options)
        controller_a.promote_all()
        assert controller_a.compiler.engine.stats.functions_specialized == 1
        # Tiered run in a "fresh process": the promotion loads from disk.
        vm_t, controller_t = make_tiered_min(program, threshold=1,
                                             options=options)
        vm_t.call("min_interp", _args(program, 0))
        engine_stats = controller_t.compiler.engine.stats
        assert controller_t.stats.promotions == 1
        assert engine_stats.functions_specialized == 0
        assert engine_stats.artifact_hits == 1

    def test_promote_all_matches_dynamic_result(self):
        program = sum_to_n_program(15)
        vm_d, controller_d = make_tiered_min(
            program, threshold=1, options=SpecializeOptions(backend="vm"))
        dynamic = vm_d.call("min_interp", _args(program, 0))
        vm_s, controller_s = make_tiered_min(
            program, options=SpecializeOptions(backend="vm"))
        controller_s.promote_all()
        name = next(iter(controller_s.profiles.values())).installed_name
        static = vm_s.call(name, _args(program, 0))
        assert dynamic == static
        assert vm_d.stats.fuel == vm_s.stats.fuel

    def test_staged_promote_all_still_earns_tier2(self):
        """Regression: ``promote_all`` in staged mode must open the same
        tier-1 window per-call promotion does (slot unpatched, tier-2
        owed after ``compile_threshold`` calls) — it used to patch the
        slot at tier 1, so nothing ever reached the backend."""
        from repro.jsvm import JSRuntime
        from repro.jsvm.runtime import CODE_LOAD_FUEL_PER_WORD
        from repro.jsvm.values import VALUE_UNDEFINED

        def run(**tiering):
            rt = JSRuntime(corpus_program("js/richards.js"), "wevaled_state",
                           options=SpecializeOptions(backend="py"))
            controller = rt.make_controller(**tiering)
            vm = controller.attach(VM(rt.module))
            controller.promote_all()
            vm.stats.fuel += CODE_LOAD_FUEL_PER_WORD * sum(
                len(f.code) for f in rt.compiled.functions)
            vm.store_u64(rt.frame_base, VALUE_UNDEFINED)
            vm.call(rt.generic_entry, [rt.func_addrs[0], rt.frame_base])
            return rt.printed, vm.stats.fuel, controller

        printed_u, fuel_u, unstaged = run()
        printed_s, fuel_s, staged = run(threshold=2, compile_threshold=3)
        assert staged.stats.tier2_installs > 0
        assert staged.tier_counts()[2] > 0
        assert (printed_s, fuel_s) == (printed_u, fuel_u)
        assert unstaged.tier_counts()[1] == 0

    def test_deopt_with_failed_replacement_leaves_no_stale_slot(self):
        """A guard failure whose replacement compile is quarantined
        leaves the function on tier 0 — and its dispatch slot must say
        so (it used to keep pointing at the retired speculation)."""
        from repro.pipeline.faults import FaultPlan
        program = sum_to_n_program(20)
        plan = FaultPlan.once("specialize", index=1)  # the replacement
        vm, controller = make_tiered_min(
            program, threshold=2, speculate=True,
            options=SpecializeOptions(backend="vm", fault_plan=plan))
        ref = VM(build_min_module(program))
        for value in (3, 3, 9):
            assert vm.call("min_interp", _args(program, value)) == \
                ref.call("min_interp", _args(program, value))
        profile = next(iter(controller.profiles.values()))
        assert controller.stats.demotions == 1
        assert controller.stats.compile_failures == 1
        assert profile.tier == 0
        assert vm.load_u64(profile.entry.result_addr) == 0
        controller.check_invariants()

    def test_check_invariants_catches_a_stale_slot(self):
        program = sum_to_n_program(10)
        vm, controller = make_tiered_min(
            program, threshold=1, options=SpecializeOptions(backend="py"))
        vm.call("min_interp", _args(program, 0))
        profile = next(iter(controller.profiles.values()))
        assert profile.tier == 2
        controller.check_invariants()
        vm.store_u64(profile.entry.result_addr, 0)
        with pytest.raises(AssertionError, match="tier 2 but slot=0"):
            controller.check_invariants()

    def test_report_smoke(self):
        program = sum_to_n_program(10)
        vm, controller = make_tiered_min(program, threshold=1)
        vm.call("min_interp", _args(program, 0))
        text = controller.report()
        assert "promotions=1" in text and "tier" in text


@pytest.mark.parametrize("backend", ["vm", "py"])
@settings(max_examples=20, deadline=None)
@given(values=st.lists(st.sampled_from((2, 3, 9)), min_size=1, max_size=12),
       threshold=st.integers(min_value=1, max_value=4))
def test_a_speculation_deopts_at_most_once(backend, values, threshold):
    """Arguments drawn from three values, so an entry guard both holds
    and fails: every result equals the interpreter's, and with no
    breaker a profile still deopts at most once and demotes at most
    once."""
    program = sum_to_n_program(12)
    vm, controller = make_tiered_min(
        program, threshold=threshold, speculate=True,
        options=SpecializeOptions(backend=backend))
    ref = VM(build_min_module(program))
    for value in values:
        assert vm.call("min_interp", _args(program, value)) == \
            ref.call("min_interp", _args(program, value))
    controller.check_invariants()
    assert all(p.deopts <= 1 for p in controller.profiles.values())
    assert controller.stats.demotions <= len(controller.profiles)


class TestPromoteSeconds:
    def test_a_contained_failed_promotion_counts(self):
        """A promotion that fails and is contained stalled the guest as
        long as one that lands, and ``promote_seconds`` says so."""
        from repro.pipeline.faults import FaultPlan
        program = sum_to_n_program(20)
        vm, controller = make_tiered_min(
            program, threshold=1,
            options=SpecializeOptions(
                backend="vm", fault_plan=FaultPlan.once("specialize")))
        real = controller._compile

        def slow(*args):
            time.sleep(0.02)
            return real(*args)

        controller._compile = slow
        ref = VM(build_min_module(program))
        assert vm.call("min_interp", _args(program, 0)) == \
            ref.call("min_interp", _args(program, 0))
        assert controller.stats.compile_failures == 1
        assert controller.stats.promotions == 0
        assert controller.stats.promote_seconds >= 0.02


class TestHelpers:
    PY = SpecializeOptions(backend="py")

    def test_lua_threshold_one_is_aot_and_installs_lua_call_once(
            self, monkeypatch):
        aot = LuaRuntime(LUA_FIB, options=self.PY)
        aot.aot_compile()
        aot_vm = aot.run_aot()
        installs = []
        real_install = VM.install_compiled

        def recording_install(vm, compiled):
            installs.append(sorted(compiled))
            real_install(vm, compiled)

        monkeypatch.setattr(VM, "install_compiled", recording_install)
        runtime = LuaRuntime(LUA_FIB, options=self.PY)
        vm = runtime.run_tiered(threshold=1)
        assert runtime.printed == aot.printed
        # (Each promoting call reaches its residual through the tier
        # hook on lua_call's direct call, not the spec slot's indirect
        # one: calls and indirect_calls trade one per promotion.)
        assert vm.stats.fuel == aot_vm.stats.fuel
        # The helper rides with the first promotion and only with it.
        assert installs[0] == ["lua$main", "lua_call"]
        assert [names for names in installs[1:]
                if "lua_call" in names] == []
        assert runtime.controller.compiler.engine.stats.helpers == 1

    def test_lua_threshold_inf_compiles_no_helper(self):
        reference = LuaRuntime(LUA_FIB)
        interp_vm = reference.run_interpreted()
        runtime = LuaRuntime(LUA_FIB, options=self.PY)
        vm = runtime.run_tiered(threshold=float("inf"))
        assert runtime.printed == reference.printed
        assert vm.stats.fuel == interp_vm.stats.fuel
        assert vm.compiled == {}
        assert runtime.controller.compiler.engine.stats.helpers == 0

    @pytest.mark.parametrize("config", ["noic", "interp_ic", "wevaled",
                                        "wevaled_state"])
    def test_no_js_residual_reaches_a_helper(self, config):
        """Residuals specialize the interpreter bodies, so they call by
        name only what those bodies do: host imports and the generic
        interpreters, which all loop — and so stay on the IR VM."""
        from repro.jsvm import JSRuntime
        runtime = JSRuntime("function inc(x) { return x + 1; }\n"
                            "print(inc(41));", config, options=self.PY)
        module = runtime.module
        callees = {instr.imm for func in module.functions.values()
                   for block in func.blocks.values()
                   for instr in block.instrs if instr.op == "call"}
        local = callees - set(module.imports)
        assert local and all(retreating_edges(module.functions[name])
                             for name in local)
        if config.startswith("wevaled"):
            compiler = runtime.aot_compile()
            assert compiler.engine.stats.helpers == 0
            assert set(compiler.backend_functions) == \
                {item.function_name for item in compiler.processed}


class TestEndpointChurn:
    """Endpoint bases are reused across register/unregister churn; a
    new tenant at an old base must never be routed to the previous
    tenant's residual or inherit its profile."""

    def test_churn_loop_never_serves_stale_results(self):
        from repro.min.fleet import (
            add_endpoint,
            constant_program,
            endpoint_at,
            make_fleet_worker,
            remove_endpoint,
            serve,
            sum_squares_program,
        )
        vm, controller = make_fleet_worker(
            [], threshold=2,
            options=SpecializeOptions(backend="py"))
        from repro.min.harness import PyMinInterpreter
        tenants = [
            ("sum", sum_to_n_program(5)),
            ("squares", sum_squares_program(7)),
            ("admin", constant_program(3)),
            ("sum", sum_to_n_program(9)),
        ]
        expected = [PyMinInterpreter(p).run(0) for _, p in tenants]
        # Distinct per round, so a stale redirect cannot pass by luck.
        assert len(set(expected)) == len(expected)
        for round_i, (name, program) in enumerate(tenants):
            endpoint = endpoint_at(0, name, program)
            add_endpoint(vm, controller, endpoint)
            promotions_before = controller.stats.promotions
            # First call runs generic (ground truth), later calls cross
            # the threshold and run the freshly promoted residual.
            for _ in range(4):
                assert serve(vm, endpoint) == expected[round_i]
            assert controller.stats.promotions == promotions_before + 1
            remove_endpoint(vm, controller, endpoint)
            assert ("min_interp", endpoint.base) not in controller.profiles
            assert controller.entries == []
            assert vm.load_u64(endpoint.slot) == 0

    def test_unregister_stops_redirecting_immediately(self):
        from repro.min.fleet import (
            add_endpoint,
            endpoint_at,
            make_fleet_worker,
            remove_endpoint,
            serve,
        )
        vm, controller = make_fleet_worker(
            [], threshold=1, options=SpecializeOptions(backend="vm"))
        old = endpoint_at(0, "old", sum_to_n_program(6))
        add_endpoint(vm, controller, old)
        assert serve(vm, old) == 21  # promotes at the first call
        assert vm.load_u64(old.slot) != 0
        remove_endpoint(vm, controller, old)
        new = endpoint_at(0, "new", sum_to_n_program(8))
        add_endpoint(vm, controller, new)
        # Same base, different program: must run the new program, not
        # the old residual (36, never 21).
        assert serve(vm, new) == 36

    def test_endpoint_tokens_follow_content_not_address(self):
        from repro.min.fleet import endpoint_at
        a = endpoint_at(0, "svc", sum_to_n_program(6))
        b = endpoint_at(0, "svc", sum_to_n_program(8))
        c = endpoint_at(3, "svc", sum_to_n_program(6))
        assert a.token != b.token          # same base, different program
        assert a.token == c.token          # same program, different base
        assert a.tier_entry().heat_key == c.tier_entry().heat_key
