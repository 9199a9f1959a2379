"""Unit tests for speculative call-site inlining (PR 8).

Covers the :mod:`repro.opt.inline` pass on hand-built modules (splice
shape — one miss block, the site guard then the out-of-line call,
whatever precedes the site — polymorphic dispatch chains, hard-error
plan validation), the VM/backend agreement on inlined residuals
(results, site-miss notification, and exhaustive fuel-limit sweeps
across both emit legs), a generated oracle that splices random plans
into random callers and holds every engine to the un-spliced caller,
serialization round-trips for the site-guard imm and request inline
plans, and the controller's per-*site* demotion policy end-to-end on a
MiniJS phase-change workload.
"""

import dataclasses

import pytest
from hypothesis import given, note, settings, strategies as st

from repro.core.cache import function_fingerprint
from repro.core.request import Runtime, SpecializationRequest
from repro.core.specialize import SpecializeOptions
from repro.core.stats import PipelineStats
from repro.ir import FunctionBuilder, I64, Module, Signature, print_function
from repro.ir.instructions import Jump
from repro.ir.verifier import verify_function
from repro.jsvm import JSRuntime
from repro.opt.inline import (
    INLINE_HARD_CAP,
    InlineError,
    apply_inline_plan,
    enumerate_call_sites,
)
from repro.pipeline.serialize import function_from_dict, function_to_dict
from repro.vm import VM
from repro.vm.machine import OutOfFuel

from tests.helpers import EMIT_LEGS, compile_legs

SIG1 = Signature((I64,), (I64,))
SCRATCH = 256  # heap cell the prefix loads or bumps before its call
LEAVES = ("add1", "dbl", "flip")
# What may run before the site: nothing, pure ops, a load, or a store
# (a bump of the SCRATCH cell); a counted loop composes with any of them.
PREFIXES = ("none", "pure", "load", "store")


def _leaf(name: str, op: str, k: int):
    """x -> x <op> k, the inlinable callee shape."""
    fb = FunctionBuilder(name, SIG1)
    x = fb.entry.params[0][0]
    fb.ret(fb.binop(op, x, fb.iconst(k)))
    return fb.finish()


def _caller(name: str, prefix: str, loop_trips: int):
    """``f(sel, x)``: optionally spin a pure counted loop (backedges
    before the site), then run ``prefix`` (one of :data:`PREFIXES`; a
    pure or loaded term feeds the call's argument), then
    ``r = table[sel](x)`` in a non-entry block followed by a suffix
    (``return r + 7``) that keeps using the call's result — the
    join-block splice must preserve that dataflow.
    """
    fb = FunctionBuilder(name, Signature((I64, I64), (I64,)))
    sel = fb.entry.params[0][0]
    x = fb.entry.params[1][0]
    body = fb.new_block()
    if loop_trips:
        loop = fb.new_block([I64])
        fb.jump(loop, [fb.iconst(loop_trips)])
        fb.switch_to(loop)
        i = loop.params[0][0]
        i2 = fb.isub(i, fb.iconst(1))
        fb.br_if(fb.ine(i2, fb.iconst(0)), loop, body, [i2], [])
    else:
        fb.jump(body)
    fb.switch_to(body)
    addr = fb.iconst(SCRATCH)
    if prefix == "pure":
        x = fb.ixor(fb.imul(x, fb.iconst(3)), fb.iconst(5))
    elif prefix == "load":
        x = fb.iadd(x, fb.load64(addr))
    elif prefix == "store":
        fb.store64(addr, fb.iadd(fb.load64(addr), fb.iconst(1)))
    r = fb.call_indirect(SIG1, sel, [x])
    fb.ret(fb.iadd(r, fb.iconst(7)))
    return fb.finish()


def _make_module(prefix: str = "none", loop_trips: int = 0):
    """Module with three tabled leaves and a caller pair; the
    un-spliced ``caller_gen`` is every test's reference."""
    module = Module(memory_size=4096)
    for func in (_leaf("add1", "iadd", 1), _leaf("dbl", "imul", 2),
                 _leaf("flip", "ixor", 255)):
        module.add_function(func)
    index = {name: module.add_table_entry(name) for name in LEAVES}
    module.add_function(_caller("caller", prefix, loop_trips))
    module.add_function(_caller("caller_gen", prefix, loop_trips))
    return module, index


def _plan(module, index, *names, site: int = 0):
    return ((site, tuple((index[n],
                          function_fingerprint(module.functions[n]))
                         for n in names)),)


def spliced(targets=("add1",), prefix="none", loop_trips=0, stats=None):
    """:func:`_make_module` with ``targets`` spliced into ``caller``'s
    one site; the result verifies."""
    module, index = _make_module(prefix, loop_trips)
    plan = _plan(module, index, *targets)
    apply_inline_plan(module.functions["caller"], module, plan,
                      stats=stats)
    verify_function(module.functions["caller"], module)
    return module, index


def miss_block_shape(func):
    """``(ops, terminator)`` of each block of ``func`` holding a guard."""
    return [(tuple(instr.op for instr in block.instrs),
             type(block.terminator).__name__)
            for block in func.blocks.values()
            if any(instr.op == "guard" for instr in block.instrs)]


def _guards(func):
    return [instr for block in func.blocks.values()
            for instr in block.instrs if instr.op == "guard"]


def _record_misses(vm):
    misses = []
    vm.site_miss_hook = lambda name, site: misses.append((name, site))
    return misses


# ---------------------------------------------------------------------------
# Splice shape and plan validation.
# ---------------------------------------------------------------------------

class TestSplice:
    @pytest.mark.parametrize("prefix", ["none", "store"])
    def test_every_site_gets_the_one_miss_block(self, prefix):
        """A clean and an effectful prefix get the same miss block: the
        site guard, the original ``call_indirect``, a jump to the
        join."""
        stats = PipelineStats()
        module, index = spliced(prefix=prefix, stats=stats)
        func = module.functions["caller"]
        assert [guard.imm for guard in _guards(func)] == \
            [(0, (index["add1"],))]
        assert miss_block_shape(func) == \
            [(("guard", "call_indirect"), Jump.__name__)]
        assert stats.inline_attempted == 1
        assert stats.inline_committed == 1

    def test_inlined_dispatch_runs_the_callee(self):
        module, index = spliced()
        ref, _ = _make_module()
        for x in (0, 5, 41):
            got = VM(module).call("caller", [index["add1"], x])
            want = VM(ref).call("caller", [index["add1"], x])
            assert got == want == x + 1 + 7

    def test_polymorphic_chain_covers_both_targets(self):
        module, index = spliced(targets=("add1", "dbl"))
        guards = _guards(module.functions["caller"])
        assert guards[0].imm[1] == tuple(sorted(
            (index["add1"], index["dbl"])))
        for name, want in (("add1", 5 + 1 + 7), ("dbl", 5 * 2 + 7)):
            assert VM(module).call("caller", [index[name], 5]) == want
        # A target outside the chain misses: the out-of-line call
        # answers, and the site is reported once.
        vm = VM(module)
        misses = _record_misses(vm)
        assert vm.call("caller", [index["flip"], 5]) == (5 ^ 255) + 7
        assert misses == [("caller", 0)]

    def test_site_result_feeds_the_suffix(self):
        # return r + 7 after the splice: the join block must own the
        # original result id.  (Covered implicitly above; pinned here.)
        module, index = spliced(targets=("dbl",))
        assert VM(module).call("caller", [index["dbl"], 9]) == 25

    def test_sites_enumerate_in_block_id_order(self):
        module, _ = _make_module()
        sites = list(enumerate_call_sites(module.functions["caller"]))
        assert [s[0] for s in sites] == [0]
        assert sites[0][3].op == "call_indirect"

    def test_self_inlining_skipped(self):
        module, index = _make_module()
        caller = module.functions["caller"]
        self_idx = module.add_table_entry("caller")
        plan = ((0, ((self_idx, function_fingerprint(caller)),)),)
        apply_inline_plan(caller, module, plan)
        assert not _guards(caller)  # site left as the dynamic call

    def test_oversized_callee_rejected_with_stats(self):
        module, index = _make_module()
        fb = FunctionBuilder("huge", SIG1)
        acc = fb.entry.params[0][0]
        for _ in range(INLINE_HARD_CAP + 1):
            acc = fb.iadd(acc, fb.iconst(1))
        fb.ret(acc)
        module.add_function(fb.finish())
        huge_idx = module.add_table_entry("huge")
        stats = PipelineStats()
        plan = ((0, ((huge_idx,
                      function_fingerprint(module.functions["huge"])),)),)
        apply_inline_plan(module.functions["caller"], module, plan,
                          stats=stats)
        assert stats.inline_rejected_size == 1
        assert not _guards(module.functions["caller"])

    def test_fingerprint_mismatch_is_a_hard_error(self):
        module, index = _make_module()
        plan = ((0, ((index["add1"], "not-the-fingerprint"),)),)
        with pytest.raises(InlineError, match="fingerprint"):
            apply_inline_plan(module.functions["caller"], module, plan)

    def test_unknown_site_is_a_hard_error(self):
        module, index = _make_module()
        with pytest.raises(InlineError, match="unknown site"):
            apply_inline_plan(module.functions["caller"], module,
                              _plan(module, index, "add1", site=3))

    def test_null_table_slot_is_a_hard_error(self):
        module, index = _make_module()
        plan = ((0, ((0, "x"),)),)
        with pytest.raises(InlineError, match="table"):
            apply_inline_plan(module.functions["caller"], module, plan)


# ---------------------------------------------------------------------------
# Miss-path semantics: a miss notifies and resumes in place.
# ---------------------------------------------------------------------------

class TestMissPaths:
    @pytest.mark.parametrize("backend", ("vm",) + EMIT_LEGS)
    def test_resuming_miss_notifies_and_continues(self, backend):
        """With a clean or an effectful prefix, with or without a
        counted loop's backedges before the site, the miss block
        re-issues the dynamic call in place: no unwind, the same result
        as the un-spliced caller — the prefix effect ran exactly once —
        and one site-miss notification.  On the VM leg every counter but
        fuel also equals the un-spliced caller's."""
        for prefix in ("none", "store"):
            for loop_trips in (0, 5):
                module, index = spliced(prefix=prefix,
                                        loop_trips=loop_trips)
                vm = VM(module)
                if backend in EMIT_LEGS:
                    compiled = compile_legs(module.functions["caller"],
                                            module)
                    vm.install_compiled({"caller": compiled[backend].pyfunc})
                misses = _record_misses(vm)
                ref = VM(module)
                got = vm.call("caller", [index["dbl"], 4])
                want = ref.call("caller_gen", [index["dbl"], 4])
                assert got == want == 4 * 2 + 7
                assert misses == [("caller", 0)]
                assert vm.load_u64(SCRATCH) == int(prefix == "store")
                if backend != "vm":
                    continue  # compiled code counts only fuel
                for counter in ("loads", "stores", "backedges",
                                "indirect_calls"):
                    assert getattr(vm.stats, counter) == \
                        getattr(ref.stats, counter), counter

    def test_resuming_hit_does_not_notify(self):
        module, index = spliced(prefix="store")
        vm = VM(module)
        misses = _record_misses(vm)
        assert vm.call("caller", [index["add1"], 4]) == 4 + 1 + 7
        assert misses == []


# ---------------------------------------------------------------------------
# Backend agreement: results and exhaustive fuel sweeps, both emit legs.
# ---------------------------------------------------------------------------

def _run_limited(module, compiled_fn, args, fuel_limit):
    vm = VM(module, fuel_limit=fuel_limit)
    if compiled_fn is not None:
        vm.install_compiled({"caller": compiled_fn})
    try:
        return ("ok", vm.call("caller", list(args)), vm.stats.fuel)
    except OutOfFuel:
        return ("out-of-fuel", None, vm.stats.fuel)


class TestEmitAgreement:
    @pytest.mark.parametrize("effectful", [False, True])
    def test_fuel_identical_across_modes(self, effectful):
        module, index = spliced(targets=("add1", "dbl"),
                                prefix="store" if effectful else "none",
                                loop_trips=3)
        compiled = compile_legs(module.functions["caller"], module)
        for sel in LEAVES:
            args = (index[sel], 6)
            reference = _run_limited(module, None, args, None)
            assert reference[0] == "ok"
            for mode in EMIT_LEGS:
                got = _run_limited(module, compiled[mode].pyfunc, args,
                                   None)
                assert got == reference, (
                    f"sel {sel} mode {mode}: {got!r} != {reference!r}")

    @pytest.mark.parametrize("effectful", [False, True])
    def test_exhaustive_fuel_limit_sweep(self, effectful):
        """OutOfFuel agreement at every limit up to a full run, on both
        the inlined fast path and the miss path: fuel batching in the
        compiled tiers must trap at the exact VM boundary even through
        mid-function guards and the out-of-line call behind them."""
        module, index = spliced(prefix="store" if effectful else "none",
                                loop_trips=3)
        compiled = compile_legs(module.functions["caller"], module)
        for sel in ("add1", "dbl"):  # hit path and miss path
            args = (index[sel], 6)
            full = _run_limited(module, None, args, None)[2]
            for limit in range(1, full + 1):
                reference = _run_limited(module, None, args, limit)
                for mode in EMIT_LEGS:
                    got = _run_limited(module, compiled[mode].pyfunc,
                                       args, limit)
                    assert got == reference, (
                        f"sel {sel} limit {limit} mode {mode}: "
                        f"{got!r} != {reference!r}")


# ---------------------------------------------------------------------------
# Generated oracle: random plans spliced into random callers.
# ---------------------------------------------------------------------------

# Past the longest generated run (38 fuel: a four-trip loop, then a
# missed two-way chain), so the sweep below covers every limit that can
# stop one.
FUEL_BOUND = 48


@st.composite
def inline_cases(draw):
    """``(prefix, loop_trips, targets, selector, x)``: a prefix from
    :data:`PREFIXES` or a counted loop of 1–4 trips, a plan of one or two
    leaves, and a selector that hits a planned leaf or misses."""
    prefix, loop_trips = draw(st.one_of(
        st.tuples(st.sampled_from(PREFIXES), st.just(0)),
        st.tuples(st.just("none"), st.integers(1, 4))))
    targets = tuple(draw(st.lists(st.sampled_from(LEAVES), min_size=1,
                                  max_size=2, unique=True)))
    selector = draw(st.sampled_from(LEAVES))
    return prefix, loop_trips, targets, selector, draw(st.integers(0, 99))


@given(inline_cases())
@settings(max_examples=60, deadline=None)
def test_generated_splices_match_the_unspliced_caller(case):
    """The spliced caller verifies, and on the VM and both emit legs it
    returns what the un-spliced caller returns and leaves the same heap;
    the site-miss hook fires once on a miss and never on a hit; and at
    every fuel limit up to :data:`FUEL_BOUND` the VM and both legs agree
    on ``OutOfFuel``, result and fuel."""
    prefix, loop_trips, targets, selector, x = case
    module, index = spliced(targets, prefix, loop_trips)
    note(print_function(module.functions["caller"]))
    args = (index[selector], x)
    ref = VM(module)
    want = ref.call("caller_gen", list(args))
    expected_misses = [] if selector in targets else [("caller", 0)]
    compiled = compile_legs(module.functions["caller"], module)
    for leg in ("vm",) + EMIT_LEGS:
        vm = VM(module)
        if leg in EMIT_LEGS:
            vm.install_compiled({"caller": compiled[leg].pyfunc})
        misses = _record_misses(vm)
        assert vm.call("caller", list(args)) == want, leg
        assert bytes(vm.memory) == bytes(ref.memory), leg
        assert misses == expected_misses, leg
    for limit in range(1, FUEL_BOUND + 1):
        reference = _run_limited(module, None, args, limit)
        for leg in EMIT_LEGS:
            got = _run_limited(module, compiled[leg].pyfunc, args, limit)
            assert got == reference, (leg, limit)
    assert reference[0] == "ok"  # the bound covered the whole run


# ---------------------------------------------------------------------------
# Serialization: the site-guard imm; inline plans in the request key.
# ---------------------------------------------------------------------------

class TestSerialization:
    @pytest.mark.parametrize("effectful", [False, True])
    def test_spliced_function_round_trips(self, effectful):
        module, _ = spliced(targets=("add1", "dbl"),
                            prefix="store" if effectful else "none")
        func = module.functions["caller"]
        payload = function_to_dict(func)
        import json
        restored = function_from_dict(json.loads(json.dumps(payload)))
        verify_function(restored, module)
        assert function_to_dict(restored) == payload
        assert [i.imm for i in _guards(restored)] == \
            [i.imm for i in _guards(func)]

    def test_plan_changes_name_and_cache_key(self):
        base = SpecializationRequest("caller", [Runtime()])
        planned = dataclasses.replace(
            base, inline_plan=((0, ((2, "aa"),)),))
        assert planned.name() != base.name()
        assert planned.cache_key() != base.cache_key()


# ---------------------------------------------------------------------------
# Controller policy: per-site demotion on a MiniJS phase change.
# ---------------------------------------------------------------------------

# The warm-up loop drives ``inc`` to tier 2 *before* ``apply``'s
# profiling window opens: a staged callee's dispatch slot stays
# un-patched until its own tier-2 install, so ``apply``'s site only
# observes (and the controller only inlines) callees that are already
# compiled — exactly the steady-state chains worth splicing.
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

# A chain whose speculation holds to the end of the run: ``apply``'s
# site only ever sees ``inc`` (monomorphic) and ``pick``'s alternates
# between ``inc`` and ``dbl`` from its first call (a two-way guard).
STEADY_CHAIN_SRC = "\n".join([
    "function inc(x) { return x + 1; }",
    "function dbl(x) { return x * 2; }",
    "function apply(f, x) { return f(x); }",
    "function pick(x) {",
    "  var f = inc;",
    "  if (x % 2 == 1) { f = dbl; }",
    "  return f(x);",
    "}",
    "var w = 0;",
    "var k = 0;",
    "while (k < 8) { w = dbl(inc(w)); k = k + 1; }",
    "var t = w;",
    "var i = 0;",
    "while (i < 30) { t = t + apply(inc, i) + pick(i); i = i + 1; }",
    "print(t);",
])


class TestControllerInline:
    def test_inline_requires_staged_tier2_window(self):
        runtime = JSRuntime(PHASE_CHANGE_SRC, "wevaled",
                            options=SpecializeOptions(backend="py"))
        with pytest.raises(ValueError, match="staged"):
            runtime.run_tiered(threshold=2, inline=True)

    def test_phase_change_demotes_site_exactly_once(self):
        """The ``apply`` dispatch site is speculated on ``inc`` during
        the profiling window; the mid-run switch to ``dbl`` must miss
        the polymorphic guard, demote that one *site* exactly once,
        respecialize without it, and keep the output identical to the
        interpreter."""
        reference = JSRuntime(PHASE_CHANGE_SRC, "interp_ic")
        reference.run()
        runtime = JSRuntime(PHASE_CHANGE_SRC, "wevaled",
                            options=SpecializeOptions(backend="py"))
        runtime.run_tiered(threshold=2, compile_threshold=3,
                           inline=True, inline_min_site_calls=2)
        assert runtime.printed == reference.printed
        stats = runtime.controller.stats
        assert stats.inline_sites_planned >= 1
        assert stats.site_misses >= 1
        assert stats.site_demotions == 1  # one site, exactly once
        # The whole-function speculation machinery was not involved.
        assert stats.demotions == 0

    def test_steady_chain_inlines_and_replays_from_store(self, tmp_path):
        """Where the speculation holds, inlining changes only the cost:
        same prints, strictly less fuel, both sites spliced (one behind
        a two-way guard), no guard ever misses.  And the inline plan is
        part of the stored request key, so a fresh runtime over the
        same store plans the same sites and loads every residual,
        spliced ones included, specializing nothing."""
        def run(inline, cache_dir=None):
            runtime = JSRuntime(
                STEADY_CHAIN_SRC, "wevaled",
                options=SpecializeOptions(backend="py",
                                          cache_dir=cache_dir))
            vm = runtime.run_tiered(threshold=2, compile_threshold=3,
                                    inline=inline,
                                    inline_min_site_calls=2)
            return runtime, vm.stats.fuel

        def plans(runtime):
            return [p.request.inline_plan
                    for p in runtime.controller.compiler.processed
                    if p.request.inline_plan]

        staged, staged_fuel = run(False)
        cold, cold_fuel = run(True, str(tmp_path))
        assert cold.printed == staged.printed
        assert cold_fuel < staged_fuel
        assert not plans(staged)
        assert sorted(len(targets) for plan in plans(cold)
                      for _, targets in plan) == [1, 2]
        cold_compiler = cold.controller.compiler
        assert cold.controller.stats.inline_sites_planned == 2
        assert cold_compiler.total_stats.opt.inline_committed == 2
        assert cold.controller.stats.site_misses == 0
        assert cold.controller.stats.site_demotions == 0
        cold_engine = cold_compiler.engine.stats
        assert cold_engine.inline_requests == 2
        assert cold_engine.functions_specialized == cold_engine.requests
        assert cold_engine.artifacts_written == cold_engine.requests

        warm, warm_fuel = run(True, str(tmp_path))
        assert (warm.printed, warm_fuel) == (cold.printed, cold_fuel)
        assert plans(warm) == plans(cold)
        warm_engine = warm.controller.compiler.engine.stats
        assert warm_engine.functions_specialized == 0
        assert warm_engine.artifact_hits == warm_engine.requests > 0
        assert warm_engine.inline_requests == 2
        assert warm.controller.stats.site_misses == 0

    def test_unregister_closes_the_site_window(self):
        """A function retired mid-window must leave the VM's
        site-profiling set with it (it used to linger there)."""
        runtime = JSRuntime(PHASE_CHANGE_SRC, "wevaled",
                            options=SpecializeOptions(backend="py"))
        vm = runtime.run_tiered(threshold=2, compile_threshold=10_000,
                                inline=True)
        controller = runtime.controller
        windowed = [p for p in controller.profiles.values()
                    if p.installed_name in vm.site_profile_functions]
        assert windowed and all(p.tier == 1 for p in windowed)
        controller.unregister(windowed[0].entry)
        assert windowed[0].installed_name not in vm.site_profile_functions
        assert vm.load_u64(windowed[0].entry.result_addr) == 0

    def test_inline_off_is_unchanged(self):
        """``inline=False`` staged tier-2 plans nothing and keeps its
        existing behavior byte for byte (prints and fuel)."""
        reference = JSRuntime(PHASE_CHANGE_SRC, "wevaled",
                              options=SpecializeOptions(backend="py"))
        vm_ref = reference.run_tiered(threshold=2, compile_threshold=3)
        runtime = JSRuntime(PHASE_CHANGE_SRC, "wevaled",
                            options=SpecializeOptions(backend="py"))
        vm_off = runtime.run_tiered(threshold=2, compile_threshold=3,
                                    inline=False)
        assert runtime.printed == reference.printed
        assert vm_off.stats.fuel == vm_ref.stats.fuel
        assert runtime.controller.stats.inline_sites_planned == 0
