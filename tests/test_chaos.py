"""The chaos differential tier (PR 9): fault containment end to end.

The tier-up contract — tier 0 is always a correct fallback, so
compilation is *advisory* — implies a strong robustness property: under
**any** schedule of compile-stage failures, a serving worker must
produce bit-identical results to the pure interpreter, with zero
uncaught exceptions escaping the
:class:`~repro.pipeline.tiering.TieringController`.  This module
asserts exactly that, with seeded deterministic
:class:`~repro.pipeline.faults.FaultPlan` schedules:

* every injection seam individually, at rate 1.0 (a persistent outage
  of that one stage);
* randomized combined schedules across all seams (several seeds);
* the containment policies one by one — quarantine + backoff retry,
  permanent blacklist, the deopt-storm breaker and degraded stores;
* recovery: a quarantined function re-promotes once injection stops;
* helpers: an emit fault at a helper's consult leaves the helper on the
  IR VM and every request it rode with at tier 2.

The engine compiles in-process, so the per-seam consult order — and
therefore the firing schedule — is exactly reproducible.
"""

import os

import pytest

from repro.core.specialize import SpecializeOptions
from repro.luavm import LuaRuntime
from repro.min.fleet import (
    build_fleet_module,
    constant_program,
    make_endpoints,
    make_fleet_worker,
    serve,
    sum_squares_program,
)
from repro.min.harness import make_tiered_min, sum_to_n_program
from repro.min.interp import PROGRAM_BASE, build_min_module
from repro.pipeline.artifacts import unread
from repro.pipeline.faults import SEAMS, FaultInjected, FaultPlan
from repro.pipeline.profiles import open_profile_store
from repro.vm import VM, VMTrap

from tests.helpers import corpus_program


def _args(program, value):
    return [PROGRAM_BASE, len(program.words), value]


def _endpoints():
    return make_endpoints([
        ("sum", sum_to_n_program(40)),
        ("squares", sum_squares_program(12)),
        ("admin", constant_program(77)),
    ])


def _traffic(endpoints, rounds=30):
    """A deterministic request schedule: two hot endpoints, one cold."""
    schedule = []
    for i in range(rounds):
        schedule.append((endpoints[0], i % 7))
        schedule.append((endpoints[1], i % 5))
        if i % 10 == 0:
            schedule.append((endpoints[2], 0))
    return schedule


def _reference_results(endpoints, traffic):
    """The pure-interpreter ground truth: a plain VM, no controller."""
    vm = VM(build_fleet_module(endpoints))
    return [vm.call("min_interp", ep.args(value)) for ep, value in traffic]


def _run_chaos_worker(plan, tmp_path, *, backend="py", rounds=30,
                      publish_every=0):
    """Serve the deterministic traffic through a tiered worker with the
    given fault plan; returns (results, controller, plan)."""
    endpoints = _endpoints()
    traffic = _traffic(endpoints, rounds)
    options = SpecializeOptions(backend=backend, fault_plan=plan,
                                cache_dir=str(tmp_path / "cache"))
    vm, controller = make_fleet_worker(endpoints, threshold=3,
                                       options=options)
    store = open_profile_store(options.cache_dir, fault_plan=plan)
    results = []
    for i, (endpoint, value) in enumerate(traffic):
        results.append(serve(vm, endpoint, value))
        if publish_every and i % publish_every == publish_every - 1:
            controller.publish_heat(store)
    return results, controller, _reference_results(endpoints, traffic)


# ---------------------------------------------------------------------------
# Every seam individually: a total outage of one pipeline stage.
# ---------------------------------------------------------------------------
class TestSeamOutages:
    @pytest.mark.parametrize("seam", ["specialize", "verify", "emit",
                                      "store_read", "store_write",
                                      "heat_merge"])
    def test_seam_outage_results_identical(self, tmp_path, seam):
        plan = FaultPlan.always(seam)
        results, controller, expected = _run_chaos_worker(
            plan, tmp_path, publish_every=8)
        assert results == expected
        # The seam was actually exercised under this configuration.
        assert plan.fired.get(seam, 0) > 0
        # Nothing escaped: the report renders and the controller is
        # still serving (implicit in the loop having completed).
        assert "tier" in controller.report()

    @pytest.mark.parametrize("seam", ["specialize", "verify"])
    def test_compile_outage_blacklists_hot_functions(self, tmp_path, seam):
        plan = FaultPlan.always(seam)
        results, controller, expected = _run_chaos_worker(plan, tmp_path)
        assert results == expected
        stats = controller.stats
        assert stats.compile_failures >= 3
        assert stats.blacklists >= 1
        for profile in controller.profiles.values():
            assert profile.tier == 0  # nothing ever installed
        assert "containment:" in controller.report()

    def test_store_write_outage_degrades_to_memory(self, tmp_path):
        plan = FaultPlan.always("store_write")
        results, controller, expected = _run_chaos_worker(plan, tmp_path)
        assert results == expected
        store = controller.compiler.engine.store
        assert store.degraded
        assert store.health()["memory_entries"] > 0
        # Promotions kept landing through the memory overlay.
        assert controller.stats.promotions >= 2
        engine_stats = controller.compiler.engine.stats
        assert engine_stats.store_degraded == 1
        assert engine_stats.store_write_failures >= 3
        assert "store_degraded=True" in controller.report()


# ---------------------------------------------------------------------------
# Randomized combined schedules (seeded, reproducible).
# ---------------------------------------------------------------------------
class TestCombinedChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_randomized_faults_results_identical(self, tmp_path, seed):
        plan = FaultPlan(seed=seed,
                         rates={seam: 0.3 for seam in SEAMS})
        results, controller, expected = _run_chaos_worker(
            plan, tmp_path, publish_every=8)
        assert results == expected
        assert controller.report()  # observability survives chaos

    def test_same_seed_fires_identically(self, tmp_path):
        def fired(seed):
            plan = FaultPlan(seed=seed,
                             rates={seam: 0.4 for seam in SEAMS})
            _run_chaos_worker(plan, tmp_path / str(seed), publish_every=8)
            return dict(plan.consults), dict(plan.fired)

        first = fired(11)
        # A distinct tmp dir gives run 2 the same cold-store consult
        # sequence; same seed => same schedule.
        again = fired(11)
        assert first == again


# ---------------------------------------------------------------------------
# Quarantine, backoff, recovery, blacklist.
# ---------------------------------------------------------------------------
class TestQuarantine:
    def test_single_failure_quarantines_then_recovers(self):
        program = sum_to_n_program(30)
        plan = FaultPlan.once("specialize")
        vm, controller = make_tiered_min(
            program, threshold=2,
            options=SpecializeOptions(fault_plan=plan))
        ref = VM(build_min_module(program))
        results_ok = True
        for _ in range(20):
            results_ok &= (vm.call("min_interp", _args(program, 4))
                           == ref.call("min_interp", _args(program, 4)))
        assert results_ok
        profile = next(iter(controller.profiles.values()))
        stats = controller.stats
        assert stats.compile_failures == 1
        assert stats.quarantines == 1
        assert stats.quarantine_retries == 1
        assert stats.quarantine_recoveries == 1
        assert not profile.blacklisted
        assert profile.tier >= 1  # re-promoted after the backoff
        assert profile.compile_failures == 0  # reset on recovery

    def test_backoff_defers_retry(self):
        program = sum_to_n_program(2)
        plan = FaultPlan.once("specialize")
        vm, controller = make_tiered_min(
            program, threshold=4,
            options=SpecializeOptions(fault_plan=plan))
        profile = next(iter(controller.profiles.values()))
        while not controller.stats.compile_failures:
            vm.call("min_interp", _args(program, 1))
        target = profile.retry_at_score
        assert target is not None
        assert target >= profile.score(controller.backedge_weight) \
            + controller.threshold
        # The immediately-following call must NOT retry — the backoff is
        # a full threshold's worth of fresh heat away.
        vm.call("min_interp", _args(program, 1))
        assert controller.stats.quarantine_retries == 0
        assert profile.tier == 0
        # Once the heat is earned, the retry lands and succeeds.
        for _ in range(50):
            vm.call("min_interp", _args(program, 1))
            if controller.stats.quarantine_retries:
                break
        assert controller.stats.quarantine_retries == 1
        assert controller.stats.quarantine_recoveries == 1
        assert profile.tier >= 1
        # The retry fired only after the backoff score was reached.
        assert profile.score(controller.backedge_weight) >= target

    def test_persistent_failure_blacklists_permanently(self):
        program = sum_to_n_program(30)
        plan = FaultPlan.always("specialize")
        vm, controller = make_tiered_min(
            program, threshold=1,
            options=SpecializeOptions(fault_plan=plan))
        ref = VM(build_min_module(program))
        for _ in range(60):
            assert vm.call("min_interp", _args(program, 2)) == \
                ref.call("min_interp", _args(program, 2))
        profile = next(iter(controller.profiles.values()))
        assert profile.blacklisted
        assert profile.tier == 0
        assert controller.stats.blacklists == 1
        assert controller.stats.compile_failures == \
            controller.max_compile_failures
        failures = controller.stats.compile_failures
        # Blacklist is final: more heat never compiles again.
        for _ in range(20):
            vm.call("min_interp", _args(program, 2))
        assert controller.stats.compile_failures == failures

    def test_disarmed_plan_repromotes(self):
        program = sum_to_n_program(30)
        plan = FaultPlan.always("specialize")
        vm, controller = make_tiered_min(
            program, threshold=2,
            options=SpecializeOptions(fault_plan=plan))
        controller.max_compile_failures = 99  # quarantine, never blacklist
        ref = VM(build_min_module(program))
        for _ in range(10):
            assert vm.call("min_interp", _args(program, 3)) == \
                ref.call("min_interp", _args(program, 3))
        profile = next(iter(controller.profiles.values()))
        assert profile.tier == 0
        assert controller.stats.compile_failures >= 1
        plan.disarm()  # the outage ends
        for _ in range(300):
            assert vm.call("min_interp", _args(program, 3)) == \
                ref.call("min_interp", _args(program, 3))
            if profile.tier >= 1:
                break
        assert profile.tier >= 1  # recovered once injection stopped
        assert controller.stats.quarantine_recoveries == 1


# ---------------------------------------------------------------------------
# The deopt-storm breaker.
# ---------------------------------------------------------------------------
class TestStormBreaker:
    def test_storm_pins_function_generic(self):
        program = sum_to_n_program(25)
        vm, controller = make_tiered_min(
            program, threshold=2, speculate=True,
            options=SpecializeOptions(backend="vm"))
        controller.storm_deopts = 1  # one deopt = a storm
        ref = VM(build_min_module(program))
        for value in (3, 3, 9, 3, 9, 9, 4, 5):
            assert vm.call("min_interp", _args(program, value)) == \
                ref.call("min_interp", _args(program, value))
        profile = next(iter(controller.profiles.values()))
        assert profile.pinned_generic
        assert profile.tier == 0
        assert controller.stats.storm_pins == 1
        assert controller.stats.demotions == 1
        # Pinned means pinned: heat can never promote it again.
        promotions = controller.stats.promotions
        for _ in range(20):
            assert vm.call("min_interp", _args(program, 6)) == \
                ref.call("min_interp", _args(program, 6))
        assert controller.stats.promotions == promotions
        assert "storm_pins=1" in controller.report()

    def test_single_deopt_is_not_a_storm(self):
        program = sum_to_n_program(25)
        vm, controller = make_tiered_min(
            program, threshold=2, speculate=True,
            options=SpecializeOptions(backend="vm"))
        ref = VM(build_min_module(program))
        for value in (3, 3, 9, 3, 9, 9):
            assert vm.call("min_interp", _args(program, value)) == \
                ref.call("min_interp", _args(program, value))
        profile = next(iter(controller.profiles.values()))
        # Default thresholds: demote-once respecializes, no pin.
        assert not profile.pinned_generic
        assert profile.tier >= 1
        assert controller.stats.storm_pins == 0


# ---------------------------------------------------------------------------
# Helpers: a failed helper costs speed, never results or its request.
# ---------------------------------------------------------------------------
class TestHelperContainment:
    def test_helper_emit_fault_stays_on_the_vm(self):
        source = corpus_program("lua/fib.lua")

        def run(plan):
            runtime = LuaRuntime(source, options=SpecializeOptions(
                backend="py", fault_plan=plan))
            compiler = runtime.aot_compile()
            vm = runtime.run_aot()
            return runtime.printed, vm, compiler

        printed, clean_vm, _ = run(None)
        # Emit consults in batch order: lua$main, then the helper it is
        # the first to need, then lua$fib.
        plan = FaultPlan.once("emit", index=1)
        faulted, vm, compiler = run(plan)
        assert plan.fired == {"emit": 1}
        assert faulted == printed
        assert vm.stats.fuel == clean_vm.stats.fuel
        stats = compiler.engine.stats
        assert stats.requests_failed == 0 and stats.helpers == 0
        assert "lua_call" not in vm.compiled
        residuals = {item.function_name for item in compiler.processed}
        assert residuals == set(compiler.backend_functions) \
            and residuals <= set(vm.compiled)
        # Judged once: a later compile does not retry the helper.
        assert compiler.engine.compile_helpers(
            compiler.module.functions["lua$fib"]) == {}


# ---------------------------------------------------------------------------
# Late body faults: a warm start leaves code hits as text, and a body read
# later that fails costs speed, never results.
# ---------------------------------------------------------------------------
LATE_PROGRAMS = {
    "fib": corpus_program("lua/fib.lua"),
    # Prints, then traps in the helper on the guest depth limit.
    "trap": "print(7)\nfunction f(n) return f(n + 1) end\nprint(f(0))",
}


def _lua_outcome(runtime, backend):
    """``(prints, fuel or trap text)`` of one run of main."""
    try:
        ending = runtime.run_aot(backend).stats.fuel
    except VMTrap as trap:
        ending = str(trap)
    return list(runtime.printed), ending


def _warm_lua(source, cache_dir, plan):
    runtime = LuaRuntime(source, options=SpecializeOptions(
        backend="py", cache_dir=cache_dir, fault_plan=plan))
    return runtime, runtime.aot_compile()


class TestLateBodyFaults:
    @pytest.mark.parametrize("program", sorted(LATE_PROGRAMS))
    def test_every_body_fails_late(self, tmp_path, program):
        """Every stored body fails its first late read.  On the py
        backend nothing reads one; ``run_aot("vm")`` reads them all,
        each read fails and its residual is specialized again — prints
        and traps stay the interpreter's, fuel the fault-free run's."""
        source = LATE_PROGRAMS[program]
        reference = LuaRuntime(source)
        try:
            reference.run_interpreted()
            trap = None
        except VMTrap as exc:
            trap = str(exc)
        cache = str(tmp_path / "cache")
        _warm_lua(source, cache, None)  # fill the store
        for backend in ("py", "vm"):
            clean = _lua_outcome(_warm_lua(source, cache, None)[0], backend)
            assert clean[0] == reference.printed
            assert trap is None or clean[1] == trap
            inert = FaultPlan(seed=3, rates={seam: 0.0 for seam in SEAMS})
            assert _lua_outcome(_warm_lua(source, cache, inert)[0],
                                backend) == clean
            plan = FaultPlan.always("body")
            runtime, compiler = _warm_lua(source, cache, plan)
            assert all(unread(runtime.module.functions[p.function_name])
                       for p in compiler.processed)
            assert _lua_outcome(runtime, backend) == clean
            stats = compiler.engine.stats
            if backend == "py":
                assert plan.fired == {} and stats.artifact_invalid == 0
            else:
                late = len(compiler.processed)
                assert plan.fired == {"body": late}
                assert inert.consults["body"] == late
                assert stats.artifact_invalid == late
                assert stats.functions_specialized == late

    def test_interp_run_after_a_compile_reads_bodies_first(self, tmp_path):
        """After an AOT compile the frozen image dispatches to the
        residuals, so ``run("interp")`` enters them on the IR VM too:
        each body is read first, and one that fails is specialized
        again."""
        source = corpus_program("lua/fib.lua")
        reference = LuaRuntime(source)
        reference.run_interpreted()
        cache = str(tmp_path / "cache")
        _warm_lua(source, cache, None)
        clean = _warm_lua(source, cache, None)[0]
        clean_fuel = clean.run_interpreted().stats.fuel
        plan = FaultPlan.always("body")
        runtime, compiler = _warm_lua(source, cache, plan)
        assert runtime.run_interpreted().stats.fuel == clean_fuel
        assert runtime.printed == clean.printed == reference.printed
        assert plan.fired == {"body": len(compiler.processed)}

    def test_a_stored_code_object_that_fails_to_exec_reads_its_body(
            self, tmp_path, monkeypatch):
        """A code hit whose ``exec`` fails is a fallback: the IR VM runs
        the residual, so the batch reads its body — and a body that
        fails that read is specialized again, in the batch."""
        import repro.backend

        source = corpus_program("lua/fib.lua")
        reference = LuaRuntime(source)
        reference.run_interpreted()
        cache = str(tmp_path / "cache")
        _warm_lua(source, cache, None)

        def failing_exec(name, source, code=None):
            raise RuntimeError("exec failed")

        monkeypatch.setattr(repro.backend, "compile_python_source",
                            failing_exec)
        plan = FaultPlan.always("body")
        runtime, compiler = _warm_lua(source, cache, plan)
        names = [p.function_name for p in compiler.processed]
        assert set(compiler.backend_fallbacks) == set(names)
        assert not any(unread(runtime.module.functions[name])
                       for name in names)
        assert plan.fired == {"body": len(names)}
        assert compiler.engine.stats.artifact_invalid == len(names)
        runtime.run_aot()
        assert runtime.printed == reference.printed

    def test_inline_planning_leaves_the_site_out(self, tmp_path):
        """A callee whose stored body fails its first read is not an
        inline target; once it reads, it is."""
        source = corpus_program("lua/fib.lua")
        cache = str(tmp_path / "cache")
        _warm_lua(source, cache, None)
        plan = FaultPlan.always("body")
        runtime, compiler = _warm_lua(source, cache, plan)
        controller = runtime.make_controller()
        profile = next(iter(controller.profiles.values()))
        index = compiler.processed[-1].table_index
        assert controller._inlinable_target(profile, index) is None
        assert plan.fired == {"body": 1}
        plan.disarm()
        assert controller._inlinable_target(profile, index)[0] == index

    def test_tier_up_emit_of_a_failing_body_is_a_contained_crash(
            self, tmp_path):
        """A tier-up emit of a residual still held as text finds its
        code by the text, reading no body; one that must read it (its
        ``py/`` entry gone) and fails fails that emit only: neither
        compiled nor a fallback, which the tiering controller turns
        into quarantine (``_respecialize`` raises ``PromotionError``
        into ``_contain_failure``)."""
        source = corpus_program("lua/fib.lua")
        cache = tmp_path / "cache"
        _warm_lua(source, str(cache), None)
        plan = FaultPlan.always("body")
        runtime, compiler = _warm_lua(source, str(cache), plan)
        name = compiler.processed[-1].function_name
        engine = compiler.engine
        assert list(engine.compile_backend_functions([name])[0]) == [name]
        assert plan.fired == {}
        for entry in os.listdir(cache / "py"):
            os.remove(cache / "py" / entry)
        assert engine.compile_backend_functions([name]) == ({}, [])
        assert plan.fired == {"body": 1}
        assert engine.stats.requests_failed == 1
        assert unread(runtime.module.functions[name])


# ---------------------------------------------------------------------------
# Inert plans: the no-fault execution is unchanged.
# ---------------------------------------------------------------------------
class TestInertPlan:
    def test_inert_plan_matches_no_plan(self, tmp_path):
        endpoints = _endpoints()
        traffic = _traffic(endpoints)

        def run(plan, sub):
            options = SpecializeOptions(
                backend="py", fault_plan=plan,
                cache_dir=str(tmp_path / sub / "cache"))
            vm, controller = make_fleet_worker(endpoints, threshold=3,
                                               options=options)
            fuel = []
            results = []
            for endpoint, value in traffic:
                results.append(serve(vm, endpoint, value))
                fuel.append(vm.stats.fuel)
            return results, fuel, controller

        inert = FaultPlan(seed=5, rates={seam: 0.0 for seam in SEAMS})
        r_plan, f_plan, c_plan = run(inert, "a")
        r_none, f_none, c_none = run(None, "b")
        # Same results, same promotion schedule, same deterministic fuel.
        assert r_plan == r_none
        assert f_plan == f_none
        assert c_plan.stats.promotions == c_none.stats.promotions
        # The armed plan was consulted at the seams it crossed and
        # never fired.
        assert sum(inert.consults.values()) > 0
        assert inert.total_fired() == 0
        assert c_plan.stats.compile_failures == 0

    def test_fault_plan_not_in_cache_key(self, tmp_path):
        """Artifacts written under a (non-firing) plan are byte-usable
        by a plain engine and vice versa: the plan is not keyed."""
        endpoints = _endpoints()
        traffic = _traffic(endpoints, rounds=10)
        cache = str(tmp_path / "cache")

        def run(plan):
            options = SpecializeOptions(backend="py", fault_plan=plan,
                                        cache_dir=cache)
            vm, controller = make_fleet_worker(endpoints, threshold=3,
                                               options=options)
            for endpoint, value in traffic:
                serve(vm, endpoint, value)
            return controller.compiler.engine.stats

        run(FaultPlan(seed=0, rates={"specialize": 0.0}))
        warm = run(None)
        assert warm.functions_specialized == 0  # pure artifact warm start
        assert warm.artifact_hits > 0
