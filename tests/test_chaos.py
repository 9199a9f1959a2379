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
  permanent blacklist and degraded stores — and the bound no policy is
  needed for: a speculation that fails is demoted once;
* recovery: a quarantined function re-promotes once injection stops;
* helpers: an emit fault at a helper's consult leaves the helper on the
  IR VM and every request it rode with at tier 2;
* batches: a request the engine cannot even key (its generic is not in
  the module) fails alone, and a batch that raises leaves no queue
  behind.

The engine compiles in-process, so the per-seam consult order — and
therefore the firing schedule — is exactly reproducible.
"""

import dataclasses
import os

import pytest

from repro.core import SnapshotCompiler
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
from repro.min.interp import (
    PROGRAM_BASE,
    SPEC_SLOT_PLAIN,
    SPEC_SLOT_STATE,
    build_min_module,
    min_request,
    min_tier_entry,
)
from repro.pipeline import tiering
from repro.pipeline.artifacts import unread
from repro.pipeline.faults import SEAMS, FaultInjected, FaultPlan
from repro.pipeline.host import controller_for
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

    def test_staged_tier2_recovery_clears_the_quarantine(self):
        """A staged tier-2 install that succeeds after a contained
        failure is a recovery, exactly as a promotion's is: counted as a
        retry and a recovery, and the quarantine cleared, so a later
        failure starts afresh instead of counting toward the
        blacklist."""
        program = sum_to_n_program(30)
        plan = FaultPlan.once("emit")
        vm, controller = make_tiered_min(
            program, threshold=2, compile_threshold=2,
            options=SpecializeOptions(backend="py", fault_plan=plan))
        ref = VM(build_min_module(program))
        for _ in range(60):
            assert vm.call("min_interp", _args(program, 4)) == \
                ref.call("min_interp", _args(program, 4))
        profile = next(iter(controller.profiles.values()))
        stats = controller.stats
        assert plan.fired == {"emit": 1} and profile.tier == 2
        assert (stats.compile_failures, stats.quarantines,
                stats.quarantine_retries, stats.quarantine_recoveries) \
            == (1, 1, 1, 1)
        assert profile.compile_failures == 0
        assert profile.retry_at_score is None

    def test_a_compile_failure_that_does_not_recur_is_retried(
            self, monkeypatch):
        """``compile()`` failing on emitted source (here ``MemoryError``,
        twice) is a contained failure, retried after backoff — not a
        verdict remembered for the function, which reaches tier 2 once
        ``compile()`` succeeds."""
        import builtins

        real_compile = builtins.compile
        refused = []

        def flaky_compile(source, filename, *args, **kwargs):
            if str(filename).startswith("<pybackend:") and len(refused) < 2:
                refused.append(filename)
                raise MemoryError("simulated")
            return real_compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", flaky_compile)
        program = sum_to_n_program(30)
        vm, controller = make_tiered_min(
            program, threshold=2, compile_threshold=2,
            options=SpecializeOptions(backend="py"))
        ref = VM(build_min_module(program))
        for _ in range(60):
            assert vm.call("min_interp", _args(program, 4)) == \
                ref.call("min_interp", _args(program, 4))
        profile = next(iter(controller.profiles.values()))
        assert len(refused) == 2
        assert controller.stats.quarantines == 1
        assert controller.stats.tier2_installs == 1
        assert profile.tier == 2 and not profile.blacklisted

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
        assert target >= profile.score() + controller.threshold
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
        assert profile.score() >= target

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
            tiering.MAX_COMPILE_FAILURES
        failures = controller.stats.compile_failures
        # Blacklist is final: more heat never compiles again.
        for _ in range(20):
            vm.call("min_interp", _args(program, 2))
        assert controller.stats.compile_failures == failures

    def test_disarmed_plan_repromotes(self, monkeypatch):
        # Quarantine, never blacklist.
        monkeypatch.setattr(tiering, "MAX_COMPILE_FAILURES", 99)
        program = sum_to_n_program(30)
        plan = FaultPlan.always("specialize")
        vm, controller = make_tiered_min(
            program, threshold=2,
            options=SpecializeOptions(fault_plan=plan))
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
# A failed speculation is demoted once: no breaker bounds deopts.
# ---------------------------------------------------------------------------
class TestDeoptBound:
    def test_a_deopt_demotes_once(self):
        program = sum_to_n_program(25)
        vm, controller = make_tiered_min(
            program, threshold=2, speculate=True,
            options=SpecializeOptions(backend="vm"))
        ref = VM(build_min_module(program))
        for value in (3, 3, 9, 3, 9, 9):
            assert vm.call("min_interp", _args(program, value)) == \
                ref.call("min_interp", _args(program, value))
        profile = next(iter(controller.profiles.values()))
        # Demote-once respecializes without the guard.
        assert profile.tier >= 1
        for value in (4, 5) * 10:
            assert vm.call("min_interp", _args(program, value)) == \
                ref.call("min_interp", _args(program, value))
        assert profile.tier >= 1
        assert profile.deopts == 1 and controller.stats.deopts == 1
        assert controller.stats.demotions == 1


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


class TestBatchContainment:
    """A request whose generic the module lacks fails alone: its key is
    computed inside the per-request containment, not before it."""

    @staticmethod
    def _requests(program):
        good = min_request(program, True)
        return good, dataclasses.replace(good, generic="no_such_fn",
                                         specialized_name="bad")

    def test_an_unkeyable_request_fails_alone(self):
        program = sum_to_n_program(10)
        compiler = SnapshotCompiler(build_min_module(program))
        good, bad = self._requests(program)
        compiler.enqueue(good, SPEC_SLOT_STATE)
        compiler.enqueue(bad, SPEC_SLOT_PLAIN)
        installed, failed = compiler.process_requests()
        assert compiler.pending == []
        assert failed.error is not None and "no_such_fn" in failed.error
        assert failed.table_index == -1
        assert installed.error is None and installed.table_index > 0
        assert installed.function_name in compiler.module.functions
        vm = compiler.instantiate()
        assert vm.load_u64(SPEC_SLOT_STATE) == installed.table_index
        assert vm.load_u64(SPEC_SLOT_PLAIN) == 0
        assert compiler.engine.stats.requests_failed == 1

    def test_promote_all_quarantines_only_the_bad_entry(self):
        program = sum_to_n_program(10)
        module = build_min_module(program)
        good = min_tier_entry(program, True)
        bad = dataclasses.replace(
            good, key=PROGRAM_BASE + 8, result_addr=SPEC_SLOT_PLAIN,
            request=self._requests(program)[1])
        controller = controller_for(module, [good, bad])
        vm = controller.attach(VM(module))
        assert controller.promote_all() == [good.request.name()]
        assert controller.compiler.pending == []
        good_profile = controller.profiles[("min_interp", good.key)]
        bad_profile = controller.profiles[("min_interp", bad.key)]
        assert good_profile.tier == 1 and bad_profile.tier == 0
        assert vm.load_u64(SPEC_SLOT_STATE) == good_profile.table_index
        assert vm.load_u64(SPEC_SLOT_PLAIN) == 0
        assert bad_profile.compile_failures == 1
        assert "no_such_fn" in bad_profile.last_error
        assert (controller.stats.compile_failures,
                controller.stats.quarantines) == (1, 1)
        assert vm.call("min_interp", _args(program, 4)) == \
            VM(build_min_module(program)).call("min_interp",
                                               _args(program, 4))

    def test_a_batch_that_raises_leaves_no_queue(self, monkeypatch):
        program = sum_to_n_program(10)
        compiler = SnapshotCompiler(build_min_module(program))

        def boom(requests, snapshot=None):
            raise RuntimeError("engine down")

        monkeypatch.setattr(compiler.engine, "compile_batch", boom)
        compiler.enqueue(self._requests(program)[0], SPEC_SLOT_STATE)
        with pytest.raises(RuntimeError, match="engine down"):
            compiler.process_requests()
        assert compiler.pending == []


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

    def test_a_stored_code_object_that_fails_to_exec_fails_its_request(
            self, tmp_path, monkeypatch):
        """A code hit whose ``exec`` fails is a failed emit like any
        other: each request fails, nothing is installed and no body is
        read, and the guest still prints the reference on tier 0."""
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
        assert compiler.processed
        assert all(p.error == "RuntimeError: exec failed"
                   and p.function_name not in runtime.module.functions
                   for p in compiler.processed)
        assert compiler.engine.stats.requests_failed \
            == len(compiler.processed)
        assert compiler.backend_functions == {} and plan.fired == {}
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
        ``py/`` entry gone) and fails fails that emit only — a failed
        request, which the tiering controller turns into quarantine (``_respecialize`` raises ``PromotionError``
        into ``_contain_failure``)."""
        source = corpus_program("lua/fib.lua")
        cache = tmp_path / "cache"
        _warm_lua(source, str(cache), None)
        plan = FaultPlan.always("body")
        runtime, compiler = _warm_lua(source, str(cache), plan)
        name = compiler.processed[-1].function_name
        engine = compiler.engine
        assert list(engine.compile_backend_functions([name])) == [name]
        assert plan.fired == {}
        for entry in os.listdir(cache / "py"):
            os.remove(cache / "py" / entry)
        assert engine.compile_backend_functions([name]) == {}
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
