"""Call-link table tests (PR 10): the call-boundary fast path.

Three layers:

* **unit** — :class:`~repro.pipeline.links.CallLinkTable` mechanics on
  IR modules written as text: direct slots patch after the first call,
  inline caches fill on an indirect hit, ``invalidate()`` resets every
  slot *in place* (identity-stable lists, so in-flight frames observe
  the reset), the probe refuses every non-steady callee shape, and the
  ``REPRO_LINK_CALLS=0`` kill switch keeps every bridge permanently
  slow;
* **fast-path regression** — linking on vs off must be bit-identical in
  results and in *every* execution counter (fuel, and the calls,
  indirect calls, loads and stores the IR VM counts): the link is taken
  only where the slow path would have been a straight
  ``vm.compiled[name](vm, *args)``;
* **invalidation matrix** — every dispatch-changing event resets the
  table: tier-2 install, whole-function demotion, per-site demotion,
  blacklist, ``unregister`` / endpoint churn at a reused heap base,
  fleet heat adoption, and a seeded chaos schedule with linking enabled
  throughout;
* **direct links to helpers** — MiniLua residuals call the compiled
  ``lua_call`` through direct slots that patch: linked ≡ unlinked, and
  a tiered run keeps the controller's invariants under the verify flag.
"""

import pytest

from repro.core.specialize import SpecializeOptions
from repro.ir import parse_function
from repro.ir.function import Signature
from repro.ir.module import Module
from repro.ir.types import I64
from repro.jsvm import JSRuntime
from repro.luavm import LuaRuntime
from repro.min.harness import make_tiered_min, sum_to_n_program
from repro.min.interp import PROGRAM_BASE, build_min_module
from repro.pipeline.faults import SEAMS, FaultPlan
from repro.pipeline.links import CallLinkTable
from repro.pipeline.profiles import ProfileStore
from repro.vm import VM, VMTrap

from tests.helpers import compile_py, corpus_program


def _args(program, value):
    return [PROGRAM_BASE, len(program.words), value]


# ---------------------------------------------------------------------------
# IR text: one caller with two direct sites, or two indirect sites.
# ---------------------------------------------------------------------------

CALLEE = """\
func @callee(v0: i64, v1: i64) -> i64 {
block0:
  v2 = iadd v0, v1
  return v2
}"""

CALLER = {
    False: """\
func @caller(v0: i64) -> i64 {
block0:
  v1 = iconst 7
  v2 = call @callee v0, v1
  v3 = call @callee v0, v1
  v4 = iadd v2, v3
  return v4
}""",
    True: """\
func @caller(v0: i64) -> i64 {
block0:
  v1 = iconst 7
  v2 = iconst 1
  v3 = call_indirect sig(i64, i64) -> i64 v2, v0, v1
  v4 = call_indirect sig(i64, i64) -> i64 v2, v0, v1
  v5 = iadd v3, v4
  return v5
}""",
}


def _caller_module(indirect=False):
    """``caller(x) = callee(x, 7) + callee(x, 7)`` — two direct sites,
    or two indirect sites through table index 1."""
    module = Module()
    module.add_function(parse_function(CALLEE))
    module.add_function(parse_function(CALLER[indirect], module))
    if indirect:
        module.add_table_entry("callee")
    return module


def _vm_with_compiled(module, linked=True):
    vm = VM(module)
    vm.install_compiled({
        name: compile_py(module.functions[name], module)[0]
        for name in ("caller", "callee")})
    if not linked:
        vm.links.enabled = False
        vm.links.invalidate()
    return vm


class TestDirectLinking:
    def test_first_call_links_then_stays_linked(self):
        vm = _vm_with_compiled(_caller_module())
        assert vm.links.linked_count() == 0
        assert vm.call("caller", [5]) == 24
        # Both sites ran their bridge once and patched.
        assert vm.links.links_made == 2
        assert vm.links.linked_count() == 2
        assert vm.call("caller", [5]) == 24

    def test_linked_run_is_fuel_identical(self):
        linked = _vm_with_compiled(_caller_module())
        unlinked = _vm_with_compiled(_caller_module(), linked=False)
        for value in (0, 5, 123):
            assert linked.call("caller", [value]) == \
                unlinked.call("caller", [value])
        assert unlinked.links.links_made == 0
        assert linked.stats.fuel == unlinked.stats.fuel
        assert linked.stats.calls == unlinked.stats.calls

    def test_invalidate_resets_in_place(self):
        vm = _vm_with_compiled(_caller_module())
        vm.call("caller", [1])
        slots = vm._link_slots["caller"]
        assert not hasattr(slots[0], "_link_bridge")
        epoch = vm.links.epoch
        vm.links.invalidate()
        assert vm.links.epoch == epoch + 1
        # Same list object (in-flight frames hold it), bridges restored.
        assert vm._link_slots["caller"] is slots
        assert hasattr(slots[0], "_link_bridge")
        assert vm.links.linked_count() == 0
        # And it relinks on the next call.
        assert vm.call("caller", [2]) == 18
        assert vm.links.links_made == 4

    def test_kill_switch_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINK_CALLS", "0")
        vm = _vm_with_compiled(_caller_module())
        assert not vm.links.enabled
        assert vm.call("caller", [3]) == 20
        assert vm.links.links_made == 0
        assert vm.links.linked_count() == 0

    def test_install_compiled_invalidates_and_rebinds(self):
        module = _caller_module()
        vm = _vm_with_compiled(module)
        vm.call("caller", [1])
        assert vm.links.linked_count() == 2
        epoch = vm.links.epoch
        # Reinstalling any function must drop every link (the callee
        # identity behind a patched slot may have changed).
        vm.install_compiled({
            "callee": compile_py(module.functions["callee"], module)[0]})
        assert vm.links.epoch > epoch
        assert vm.links.linked_count() == 0
        assert vm.call("caller", [1]) == 16


class TestIndirectLinking:
    def test_ic_fills_and_resets(self):
        vm = _vm_with_compiled(_caller_module(indirect=True))
        assert vm.call("caller", [5]) == 24
        assert vm.links.ic_links_made == 2
        ic = vm._link_slots["caller"][0]
        assert ic[0] == 1 and ic[1] is not None
        # Hits call the raw target and fill nothing more; a hit costs the
        # fuel a miss does.
        fuel_before = vm.stats.fuel
        assert vm.call("caller", [5]) == 24
        linked_fuel = vm.stats.fuel - fuel_before
        assert vm.links.ic_links_made == 2 and ic[0] == 1
        vm.links.invalidate()
        assert ic[0] == -1 and ic[1] is None
        fuel_before = vm.stats.fuel
        assert vm.call("caller", [5]) == 24
        assert vm.stats.fuel - fuel_before == linked_fuel

    def test_ic_fuel_identical_to_unlinked(self):
        linked = _vm_with_compiled(_caller_module(indirect=True))
        unlinked = _vm_with_compiled(_caller_module(indirect=True),
                                     linked=False)
        for value in (0, 9, 40):
            assert linked.call("caller", [value]) == \
                unlinked.call("caller", [value])
        assert linked.stats.fuel == unlinked.stats.fuel
        assert linked.stats.indirect_calls == unlinked.stats.indirect_calls


class TestProbeRefusals:
    def test_refuses_arity_mismatch(self):
        vm = _vm_with_compiled(_caller_module())
        assert vm.links._probe("callee", 3) is None
        assert vm.links._probe("callee", 2) is not None

    def test_refuses_uncompiled_and_imports(self):
        module = _caller_module()
        vm = _vm_with_compiled(module)
        assert vm.links._probe("nope", 2) is None
        from repro.ir.module import HostFunc
        module.add_import(HostFunc("host_fn", Signature((I64,), (I64,)),
                                   lambda vm, x: x))
        vm.compiled["host_fn"] = vm.compiled["callee"]
        assert vm.links._probe("host_fn", 2) is None

    def test_refuses_deopt_fallback_entries(self):
        vm = _vm_with_compiled(_caller_module())
        vm.deopt_fallbacks["callee"] = "callee_generic"
        assert vm.links._probe("callee", 2) is None

    def test_refuses_hooked_generics(self):
        vm = _vm_with_compiled(_caller_module())
        vm.tier_generics = frozenset({"callee"})
        assert vm.links._probe("callee", 2) is not None  # no hook yet
        vm.tier_hook = lambda name, args: None
        assert vm.links._probe("callee", 2) is None

    def test_disabled_table_refuses_everything(self):
        vm = _vm_with_compiled(_caller_module())
        vm.links.enabled = False
        assert vm.links._probe("callee", 2) is None


class TestFixedArityBoundary:
    """The unboxed calling convention must preserve the VM's observable
    call-boundary traps exactly."""

    def test_arity_trap_message_identical(self):
        vm = _vm_with_compiled(_caller_module())
        plain = VM(_caller_module())
        with pytest.raises(VMTrap) as compiled_trap:
            vm.call("callee", [1])
        with pytest.raises(VMTrap) as interp_trap:
            plain.call("callee", [1])
        assert str(compiled_trap.value) == str(interp_trap.value)

    def test_depth_exhaustion_message_identical(self):
        def recursive_module():
            module = Module()
            module.add_function(parse_function("""\
func @loop(v0: i64) -> i64 {
block0:
  v1 = call @loop v0
  return v1
}""", module))
            return module

        module = recursive_module()
        vm = VM(module)
        vm.install_compiled({
            "loop": compile_py(module.functions["loop"], module)[0]})
        plain = VM(recursive_module())
        with pytest.raises(VMTrap) as compiled_trap:
            vm.call("loop", [0])
        with pytest.raises(VMTrap) as interp_trap:
            plain.call("loop", [0])
        assert str(compiled_trap.value) == str(interp_trap.value)
        # The prologue rolled its increment back on both paths.
        assert vm._call_depth == 0
        assert plain._call_depth == 0


# ---------------------------------------------------------------------------
# Direct links to helpers: the sites that link direct in the tree.
# ---------------------------------------------------------------------------
LUA_NESTED = corpus_program("lua/nested.lua")


class TestHelperLinks:
    def _run(self, linked, backend="py"):
        runtime = LuaRuntime(LUA_NESTED,
                             options=SpecializeOptions(backend=backend))
        runtime.aot_compile()
        vm = runtime.compiler.resume()
        vm.links.enabled = linked      # before any slot is bound
        runtime.enter(vm)
        s = vm.stats
        return (runtime.printed, s.fuel, s.calls, s.indirect_calls,
                s.loads, s.stores), vm.links

    def test_helper_links_are_invisible(self):
        linked, links_on = self._run(True)
        unlinked, links_off = self._run(False)
        assert linked == unlinked
        assert links_on.links_made == 2 and links_on.ic_links_made > 0
        assert links_off.links_made == 0 and links_off.ic_links_made == 0
        # The py runs never enter the IR VM, so they count only fuel; on
        # the VM backend the IR-VM counters move, and agree too.
        assert linked[2:] == (0, 0, 0, 0)
        on_vm = self._run(True, "vm")[0]
        assert on_vm == self._run(False, "vm")[0]
        assert on_vm[:2] == linked[:2] and min(on_vm[2:]) > 0

    def test_tiered_helpers_keep_invariants_under_verify(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT_VERIFY", "1")
        reference = LuaRuntime(LUA_NESTED)
        reference.run_interpreted()
        runtime = LuaRuntime(LUA_NESTED,
                             options=SpecializeOptions(backend="py"))
        vm = runtime.run_tiered(threshold=1)
        assert runtime.printed == reference.printed
        assert "lua_call" in vm.compiled and vm.links.links_made > 0
        runtime.controller.check_invariants()


# ---------------------------------------------------------------------------
# Fast-path regression: linking must be invisible to every counter.
# ---------------------------------------------------------------------------
class TestFastPathRegression:
    def _stats_tuple(self, vm):
        s = vm.stats
        return (s.fuel, s.calls, s.indirect_calls, s.loads, s.stores)

    def test_tiered_min_stats_identical_linked_vs_unlinked(self):
        program = sum_to_n_program(35)
        results = {}
        for linked in (True, False):
            vm, controller = make_tiered_min(
                program, threshold=2,
                options=SpecializeOptions(backend="py"),
                compile_threshold=3)
            if not linked:
                vm.links.enabled = False
                vm.links.invalidate()
            out = [vm.call("min_interp", _args(program, v))
                   for v in (0, 1, 2, 3, 4, 5)]
            results[linked] = (out, self._stats_tuple(vm))
        assert results[True] == results[False]
        # Tier 0 and the tier-1 window run on the IR VM: loads and
        # stores are live counters here.
        assert min(results[True][1][3:]) > 0

    def test_jsvm_phase_change_identical_linked_vs_unlinked(self,
                                                            monkeypatch):
        def run(linked):
            if not linked:
                monkeypatch.setenv("REPRO_LINK_CALLS", "0")
            runtime = JSRuntime(PHASE_CHANGE_SRC, "wevaled",
                                options=SpecializeOptions(backend="py"))
            vm = runtime.run_tiered(threshold=2, compile_threshold=3)
            monkeypatch.delenv("REPRO_LINK_CALLS", raising=False)
            return runtime.printed, vm.stats.fuel, vm.links

        printed_on, fuel_on, links_on = run(True)
        printed_off, fuel_off, links_off = run(False)
        assert printed_on == printed_off
        assert fuel_on == fuel_off
        assert links_off.links_made == 0 and links_off.ic_links_made == 0


# ---------------------------------------------------------------------------
# The invalidation matrix: every dispatch-changing event resets slots.
# ---------------------------------------------------------------------------

PHASE_CHANGE_SRC = "\n".join([
    "function inc(x) { return x + 1; }",
    "function dbl(x) { return x * 2; }",
    "function apply(f, x) { return f(x); }",
    "var w = 0;",
    "var k = 0;",
    "while (k < 8) { w = inc(w); k = k + 1; }",
    "var t = w;",
    "var i = 0;",
    "while (i < 30) { t = t + apply(inc, i); i = i + 1; }",
    "var j = 0;",
    "while (j < 30) { t = t + apply(dbl, j); j = j + 1; }",
    "print(t);",
])


class TestInvalidationMatrix:
    def test_tier2_install_bumps_epoch(self):
        program = sum_to_n_program(30)
        vm, controller = make_tiered_min(
            program, threshold=2, options=SpecializeOptions(backend="py"),
            compile_threshold=3)
        assert vm.links.epoch > 0  # attach() itself bumps
        epoch = vm.links.epoch
        for _ in range(8):
            vm.call("min_interp", _args(program, 0))
        assert controller.stats.tier2_installs == 1
        assert vm.links.epoch > epoch

    def test_demotion_bumps_epoch_and_matches_reference(self):
        program = sum_to_n_program(25)
        vm, controller = make_tiered_min(
            program, threshold=2, speculate=True,
            options=SpecializeOptions(backend="vm"))
        ref = VM(build_min_module(program))
        epochs = []
        for value in (3, 3, 9, 3, 9, 9):
            assert vm.call("min_interp", _args(program, value)) == \
                ref.call("min_interp", _args(program, value))
            epochs.append(vm.links.epoch)
        assert controller.stats.demotions == 1
        # The deopt/demotion round moved the epoch.
        assert epochs[-1] > epochs[0]

    def test_site_demotion_resets_and_stays_correct(self):
        reference = JSRuntime(PHASE_CHANGE_SRC, "interp_ic")
        reference.run()
        runtime = JSRuntime(PHASE_CHANGE_SRC, "wevaled",
                            options=SpecializeOptions(backend="py"))
        vm = runtime.run_tiered(threshold=2, compile_threshold=3,
                                inline=True, inline_min_site_calls=2)
        assert runtime.printed == reference.printed
        assert runtime.controller.stats.site_demotions == 1
        # The respecialize + reinstall of the repaired residual reset
        # the table (install_compiled invalidates unconditionally).
        assert vm.links.epoch > 1

    def test_blacklist_bumps_epoch_under_chaos(self, tmp_path):
        from repro.min.fleet import make_fleet_worker, make_endpoints, serve
        from repro.min.fleet import sum_squares_program
        endpoints = make_endpoints([("sum", sum_to_n_program(40)),
                                    ("sq", sum_squares_program(12))])
        plan = FaultPlan.always("specialize")
        vm, controller = make_fleet_worker(
            endpoints, threshold=3,
            options=SpecializeOptions(backend="py", fault_plan=plan,
                                      cache_dir=str(tmp_path)))
        ref_vm = VM(vm.module)
        for i in range(30):
            for endpoint in endpoints:
                assert serve(vm, endpoint, i % 7) == \
                    ref_vm.call("min_interp", endpoint.args(i % 7))
        assert controller.stats.blacklists >= 1
        assert vm.links.epoch > 0

    def test_endpoint_churn_at_reused_base_never_stale(self):
        """A new tenant at a reused heap base must never be served
        through a link made for the previous tenant."""
        from repro.min.fleet import (
            add_endpoint,
            constant_program,
            endpoint_at,
            make_fleet_worker,
            remove_endpoint,
            serve,
            sum_squares_program,
        )
        from repro.min.harness import PyMinInterpreter
        vm, controller = make_fleet_worker(
            [], threshold=2, options=SpecializeOptions(backend="py"))
        tenants = [
            ("sum", sum_to_n_program(5)),
            ("squares", sum_squares_program(7)),
            ("admin", constant_program(3)),
            ("sum", sum_to_n_program(9)),
        ]
        expected = [PyMinInterpreter(p).run(0) for _, p in tenants]
        assert len(set(expected)) == len(expected)
        epochs = []
        for round_i, (name, program) in enumerate(tenants):
            endpoint = endpoint_at(0, name, program)
            add_endpoint(vm, controller, endpoint)
            for _ in range(4):
                assert serve(vm, endpoint) == expected[round_i]
            remove_endpoint(vm, controller, endpoint)
            epochs.append(vm.links.epoch)
        # register + install + unregister each bump: strictly monotone
        # across churn rounds.
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)

    def test_heat_adoption_bumps_epoch(self, tmp_path):
        program = sum_to_n_program(40)
        cache_dir = str(tmp_path)
        store = ProfileStore(cache_dir)
        vm_a, controller_a = make_tiered_min(
            program, threshold=3,
            options=SpecializeOptions(backend="py", cache_dir=cache_dir))
        for _ in range(5):
            vm_a.call("min_interp", _args(program, 0))
        assert controller_a.publish_heat(store)

        vm_b, controller_b = make_tiered_min(
            program, threshold=3,
            options=SpecializeOptions(backend="py", cache_dir=cache_dir))
        epoch = vm_b.links.epoch
        adopted = controller_b.adopt_heat(store)
        assert len(adopted) == 1
        assert vm_b.links.epoch > epoch
        assert vm_b.call("min_interp", _args(program, 0)) == \
            vm_a.call("min_interp", _args(program, 0))


# ---------------------------------------------------------------------------
# Chaos with linking enabled and links actually made.
# ---------------------------------------------------------------------------
class TestChaosWithLinks:
    CHAIN_SRC = "\n".join(
        [f"function c{i}(x) {{ return c{i + 1}(x + 1); }}"
         for i in range(4)] +
        ["function c4(x) { return x + 1; }",
         "function schedule(rounds) {",
         "  var total = 0;",
         "  for (var r = 0; r < rounds; r++) { total = total + c0(r); }",
         "  return total;",
         "}",
         "print(0);"])

    def _serve_all(self, runtime, vm, rounds):
        from repro.jsvm.runtime import SPEC_FIELD_WORD
        from repro.jsvm.values import VALUE_UNDEFINED, box_double, \
            unbox_double
        struct = {f.name: runtime.func_addrs[f.index]
                  for f in runtime.compiled.functions}["schedule"]
        out = []
        for r in range(rounds):
            vm.store_u64(runtime.frame_base, VALUE_UNDEFINED)
            vm.store_u64(runtime.frame_base + 8, box_double(float(r % 6)))
            spec = vm.load_u64(struct + SPEC_FIELD_WORD * 8)
            if spec:
                out.append(unbox_double(vm.call_table(
                    spec, [struct, runtime.frame_base])))
            else:
                out.append(unbox_double(vm.call(
                    runtime.generic_entry, [struct, runtime.frame_base])))
        return out

    @pytest.mark.parametrize("seed", [7, 21])
    def test_chaos_schedule_with_links_is_identical(self, tmp_path, seed,
                                                    monkeypatch):
        def run(seeded, cache_dir, linked=True):
            if not linked:
                monkeypatch.setenv("REPRO_LINK_CALLS", "0")
            plan = (FaultPlan(seed=seed, rates={s: 0.3 for s in SEAMS})
                    if seeded else None)
            options = SpecializeOptions(backend="py", fault_plan=plan,
                                        cache_dir=str(tmp_path / cache_dir))
            runtime = JSRuntime(self.CHAIN_SRC, "wevaled_state",
                                options=options)
            vm = runtime.run(mode="tiered", threshold=2,
                             compile_threshold=3)
            monkeypatch.delenv("REPRO_LINK_CALLS", raising=False)
            return self._serve_all(runtime, vm, 25), vm

        chaotic, chaotic_vm = run(True, "chaos")
        chaotic_off, chaotic_off_vm = run(True, "chaos_off", linked=False)
        clean, clean_vm = run(False, "clean")
        # Containment: faults never leak into responses (fuel may differ
        # from the clean run because faults change *which tier* serves).
        assert chaotic == clean
        # Link invisibility: with the identical fault schedule, linking
        # on vs off is bit-identical in responses and fuel.
        assert chaotic == chaotic_off
        assert chaotic_vm.stats.fuel == chaotic_off_vm.stats.fuel
        assert chaotic_vm.links.enabled
        assert chaotic_off_vm.links.ic_links_made == 0
        # The clean linked run actually patched inline caches.
        assert clean_vm.links.ic_links_made > 0
