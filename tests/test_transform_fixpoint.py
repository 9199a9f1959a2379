"""Transform-determinism tier: fast fixpoint engine vs exhaustive
reference.

PR 4 rebuilt the compile side for throughput: the specializer skips
meets whose predecessor out-versions are unchanged, and the mid-end's
scheduler skips passes via dirty kinds and per-pass work detectors.
Every one of those skips is a *claim* — "recomputing this would change
nothing" — and ``SpecializeOptions(debug_exhaustive=True)`` is the
escape hatch that recomputes everything the fast engine elides (both
engines share the priority worklist *order*: the convergence damper's
pin set is order-dependent, so the order is part of which equally-valid
fixpoint is chosen, while the skipping machinery is the part that must
be proven output-neutral).

This tier asserts, over seeded random programs on all three guest
frontends plus the richards macro-workload, that fast and exhaustive
produce byte-identical printed residual IR, byte-identical serialized
(artifact) bytes, byte-identical emitted backend source, identical
deterministic fuel, identical mid-end mutation sequences (per-pass
change totals and round counts), and identical cache/artifact keys.
A single unsound skip anywhere shows up as a byte diff here.
"""

import dataclasses
import importlib
import json
import random

import pytest

from repro.backend import UnsupportedConstruct, compile_function
from repro.core.cache import options_key, request_key
from repro.core.specialize import SpecializeOptions
from repro.ir import print_function
from repro.jsvm import JSRuntime
from repro.jsvm.workloads import WORKLOADS
from repro.luavm.runtime import LuaRuntime
from repro.min.interp import (
    PROGRAM_BASE,
    build_min_module,
    min_request,
    specialize_min,
)
from repro.pipeline.serialize import function_to_dict
from repro.vm import VM
from test_differential import (
    random_js_source,
    random_lua_chunk,
    random_min_program,
)

N_MIN, N_LUA, N_JS = 10, 8, 4

FAST = SpecializeOptions(backend="vm")
EXHAUSTIVE = SpecializeOptions(backend="vm", debug_exhaustive=True)


def _emitted_source(func):
    try:
        return compile_function(func).source
    except UnsupportedConstruct as exc:
        return f"<fallback: {exc}>"


def _assert_equivalent_outputs(tag, fast_funcs, fast_stats,
                               exh_funcs, exh_stats):
    """The core byte-identity contract between the two engines."""
    assert sorted(fast_funcs) == sorted(exh_funcs), (
        f"{tag}: residual function sets diverged")
    for name in fast_funcs:
        fast_ir = print_function(fast_funcs[name], order="id")
        exh_ir = print_function(exh_funcs[name], order="id")
        assert fast_ir == exh_ir, (
            f"{tag}: residual IR for {name} diverged between fast and "
            f"exhaustive engines:\n--- fast ---\n{fast_ir}\n"
            f"--- exhaustive ---\n{exh_ir}")
        # The artifact store persists exactly these serialized bytes.
        assert json.dumps(function_to_dict(fast_funcs[name])) == \
            json.dumps(function_to_dict(exh_funcs[name])), (
                f"{tag}: serialized artifact bytes for {name} diverged")
        # And the tier-2 backend compiles them to identical source (or
        # falls back identically).
        assert _emitted_source(fast_funcs[name]) == \
            _emitted_source(exh_funcs[name]), (
                f"{tag}: emitted backend source for {name} diverged")
    # Output-shape stats are part of the deterministic contract; work
    # counters (visits, meets, rebuilds) legitimately differ.
    for field in ("contexts_created", "output_blocks", "output_instrs",
                  "output_block_params"):
        assert getattr(fast_stats, field) == getattr(exh_stats, field), (
            f"{tag}: stats field {field} diverged")
    # The mid-end mutation *sequence* must be identical: a skipped pass
    # is exactly one that would have reported zero changes, so per-pass
    # change totals, pass ordering, and round counts all agree while
    # runs may only shrink.
    assert sorted(fast_stats.opt.per_pass) == \
        sorted(exh_stats.opt.per_pass), f"{tag}: pass sets diverged"
    assert fast_stats.opt.rounds == exh_stats.opt.rounds, (
        f"{tag}: mid-end round counts diverged")
    for name, fast_pass in fast_stats.opt.per_pass.items():
        exh_pass = exh_stats.opt.per_pass[name]
        assert fast_pass.changes == exh_pass.changes, (
            f"{tag}: pass {name} change totals diverged "
            f"({fast_pass.changes} fast vs {exh_pass.changes} exhaustive)")
        assert fast_pass.runs <= exh_pass.runs, (
            f"{tag}: fast engine ran {name} more often than exhaustive")
    assert exh_stats.opt.passes_skipped == 0, (
        f"{tag}: exhaustive engine must never skip a pass")
    assert exh_stats.meets_skipped == 0, (
        f"{tag}: exhaustive engine must never skip a meet")


# ---------------------------------------------------------------------------
# Min ISA: direct specialize() calls, plus VM-run fuel equality.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(N_MIN))
def test_min_fixpoint_determinism(seed):
    rng = random.Random(0xF1A + seed)
    program = random_min_program(rng)
    use_intrinsics = bool(seed % 2)
    input_value = rng.randint(1, 99)

    results = {}
    for tag, options in (("fast", FAST), ("exhaustive", EXHAUSTIVE)):
        module = build_min_module(program)
        func = specialize_min(module, program, use_intrinsics,
                              options=options, name="spec")
        stats = func._weval_stats  # noqa: SLF001 - attached by specialize
        vm = VM(module)
        result = vm.call("spec", [PROGRAM_BASE, len(program.words),
                                  input_value])
        results[tag] = ({"spec": func}, stats, result, vm.stats.fuel)

    fast_funcs, fast_stats, fast_result, fast_fuel = results["fast"]
    exh_funcs, exh_stats, exh_result, exh_fuel = results["exhaustive"]
    _assert_equivalent_outputs(f"min seed {seed}", fast_funcs, fast_stats,
                               exh_funcs, exh_stats)
    assert fast_result == exh_result
    assert fast_fuel == exh_fuel, (
        f"min seed {seed}: fuel diverged {fast_fuel} vs {exh_fuel}")


# ---------------------------------------------------------------------------
# MiniLua and MiniJS: whole-runtime AOT flows.
# ---------------------------------------------------------------------------

def _residuals(runtime):
    return {p.function_name: runtime.module.functions[p.function_name]
            for p in runtime.compiler.processed}


@pytest.mark.parametrize("seed", range(N_LUA))
def test_lua_fixpoint_determinism(seed):
    source = random_lua_chunk(random.Random(0xF1B + seed))
    runs = {}
    for tag, options in (("fast", FAST), ("exhaustive", EXHAUSTIVE)):
        rt = LuaRuntime(source)
        rt.aot_compile(options)
        runs[tag] = (_residuals(rt), rt.compiler.total_stats)
    _assert_equivalent_outputs(f"lua seed {seed}", *runs["fast"],
                               *runs["exhaustive"])


@pytest.mark.parametrize("seed", range(N_JS))
def test_js_fixpoint_determinism(seed):
    source = random_js_source(random.Random(0xF1C + seed))
    config = "wevaled_state" if seed % 2 else "wevaled"
    runs = {}
    for tag, options in (("fast", FAST), ("exhaustive", EXHAUSTIVE)):
        rt = JSRuntime(source, config, options=options)
        rt.aot_compile()
        runs[tag] = (_residuals(rt), rt.compiler.total_stats, rt)
    fast_funcs, fast_stats, fast_rt = runs["fast"]
    exh_funcs, exh_stats, exh_rt = runs["exhaustive"]
    _assert_equivalent_outputs(f"js seed {seed}", fast_funcs, fast_stats,
                               exh_funcs, exh_stats)
    fast_vm = fast_rt.run()
    exh_vm = exh_rt.run()
    assert fast_rt.printed == exh_rt.printed
    assert fast_vm.stats.fuel == exh_vm.stats.fuel


# ---------------------------------------------------------------------------
# Richards: the S6.5 macro-workload, where every fast path is hot.
# ---------------------------------------------------------------------------

def test_richards_fixpoint_determinism():
    runs = {}
    for tag, options in (("fast", FAST), ("exhaustive", EXHAUSTIVE)):
        rt = JSRuntime(WORKLOADS["richards"], "wevaled_state",
                       options=options)
        rt.aot_compile()
        runs[tag] = (_residuals(rt), rt.compiler.total_stats, rt)
    fast_funcs, fast_stats, fast_rt = runs["fast"]
    exh_funcs, exh_stats, exh_rt = runs["exhaustive"]
    _assert_equivalent_outputs("richards", fast_funcs, fast_stats,
                               exh_funcs, exh_stats)
    # The throughput machinery must actually engage on a macro workload
    # (otherwise this tier would be vacuously comparing two exhaustive
    # engines).
    assert fast_stats.opt.passes_skipped > 100, (
        f"dirty-set/work-detector skipping did not engage: "
        f"{fast_stats.opt.passes_skipped} skips")
    assert fast_stats.opt.passes_skipped_nowork > 0
    assert fast_stats.meets_skipped > 0, (
        "unchanged-input meet skipping did not engage")
    assert fast_stats.block_revisits < 1000  # priority worklist converges
    assert fast_stats.revisit_rate() < 0.6, (
        f"specializer revisit rate {fast_stats.revisit_rate():.2f}/visit")
    # Two-level skipping elides at least half of the mid-end pass
    # executions the exhaustive schedule would run.
    pass_runs = sum(p.runs for p in fast_stats.opt.per_pass.values())
    assert pass_runs <= fast_stats.opt.passes_skipped, (
        f"mid-end ran {pass_runs} passes, skipped only "
        f"{fast_stats.opt.passes_skipped}")
    # Reducible interpreter CFGs make one-predecessor blocks dominant:
    # the sole-contributor fast path must cover most meets.
    assert fast_stats.meets_single_pred * 2 >= fast_stats.meets_performed, (
        f"single-pred fast path took {fast_stats.meets_single_pred} of "
        f"{fast_stats.meets_performed} meets")
    fast_vm = fast_rt.run()
    exh_vm = exh_rt.run()
    assert fast_rt.printed == exh_rt.printed == ["13120"]
    assert fast_vm.stats.fuel == exh_vm.stats.fuel


# ---------------------------------------------------------------------------
# Sole-contributor meet fast path: reusing the predecessor's out-state
# must be *exact*, not merely equivalent.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_single_pred_meet_byte_identity(seed, monkeypatch):
    """Disabling the sole-contributor fast path (every meet rebuilt via
    the full ``meet_states``) yields byte-identical residual IR,
    artifact bytes, emitted source, and fuel — and the fast path must
    actually engage when enabled."""
    specialize_mod = importlib.import_module("repro.core.specialize")

    rng = random.Random(0x51D + seed)
    program = random_min_program(rng)
    use_intrinsics = bool(seed % 2)
    input_value = rng.randint(1, 99)

    results = {}
    for tag, enabled in (("fast", True), ("full", False)):
        monkeypatch.setattr(specialize_mod, "SINGLE_PRED_FAST_MEET",
                            enabled)
        module = build_min_module(program)
        func = specialize_min(module, program, use_intrinsics,
                              options=FAST, name="spec")
        stats = func._weval_stats  # noqa: SLF001
        vm = VM(module)
        result = vm.call("spec", [PROGRAM_BASE, len(program.words),
                                  input_value])
        results[tag] = (func, stats, result, vm.stats.fuel)

    fast_func, fast_stats, fast_result, fast_fuel = results["fast"]
    full_func, full_stats, full_result, full_fuel = results["full"]
    assert fast_stats.meets_single_pred > 0, (
        f"min seed {seed}: sole-contributor fast path did not engage")
    assert full_stats.meets_single_pred == 0
    tag = f"min seed {seed} single-pred"
    assert print_function(fast_func, order="id") == \
        print_function(full_func, order="id"), (
            f"{tag}: residual IR diverged")
    assert json.dumps(function_to_dict(fast_func)) == \
        json.dumps(function_to_dict(full_func)), (
            f"{tag}: serialized artifact bytes diverged")
    assert _emitted_source(fast_func) == _emitted_source(full_func), (
        f"{tag}: emitted backend source diverged")
    assert (fast_result, fast_fuel) == (full_result, full_fuel), (
        f"{tag}: execution diverged")


def test_single_pred_meet_byte_identity_richards(monkeypatch):
    """The macro workload: the fast-meet and full-meet engines agree on
    every richards residual, byte for byte."""
    specialize_mod = importlib.import_module("repro.core.specialize")

    runs = {}
    for tag, enabled in (("fast", True), ("full", False)):
        monkeypatch.setattr(specialize_mod, "SINGLE_PRED_FAST_MEET",
                            enabled)
        rt = JSRuntime(WORKLOADS["richards"], "wevaled_state",
                       options=FAST)
        rt.aot_compile()
        runs[tag] = (_residuals(rt), rt.compiler.total_stats)
    fast_funcs, fast_stats = runs["fast"]
    full_funcs, full_stats = runs["full"]
    assert fast_stats.meets_single_pred > 0
    assert full_stats.meets_single_pred == 0
    assert sorted(fast_funcs) == sorted(full_funcs)
    for name in fast_funcs:
        assert print_function(fast_funcs[name], order="id") == \
            print_function(full_funcs[name], order="id"), (
                f"richards single-pred: residual {name} diverged")


# ---------------------------------------------------------------------------
# Cache/artifact keys: the escape hatch must not split the cache.
# ---------------------------------------------------------------------------

def test_cache_keys_ignore_engine_mode():
    """``debug_exhaustive`` changes how the output is computed, never
    what it is, so it must not appear in any cache or artifact key."""
    assert options_key(FAST) == options_key(EXHAUSTIVE)

    program = random_min_program(random.Random(0xF1D))
    module = build_min_module(program)
    request = min_request(program, use_intrinsics=True)
    snapshot = bytes(module.memory_init)
    assert request_key(module, request, FAST, snapshot) == \
        request_key(module, request, EXHAUSTIVE, snapshot)


def test_warm_artifacts_across_engine_modes(tmp_path):
    """An artifact store written by the fast engine must fully satisfy
    an exhaustive-engine run (same keys, verifier-accepted bytes): zero
    functions specialized on the warm run."""
    source = WORKLOADS["richards"]
    cold = JSRuntime(source, "wevaled_state", options=dataclasses.replace(
        FAST, cache_dir=str(tmp_path)))
    cold.aot_compile()
    assert cold.compiler.engine.stats.functions_specialized > 0

    warm = JSRuntime(source, "wevaled_state", options=dataclasses.replace(
        EXHAUSTIVE, cache_dir=str(tmp_path)))
    warm.aot_compile()
    assert warm.compiler.engine.stats.functions_specialized == 0, (
        "exhaustive engine missed artifacts written by the fast engine")
    for name, func in _residuals(cold).items():
        assert print_function(func, order="id") == \
            print_function(warm.module.functions[name], order="id")
