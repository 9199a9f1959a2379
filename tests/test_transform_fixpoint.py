"""Fixpoint tier: the mid-end's schedule against a reference loop, the
specializer's convergence, and the single-predecessor meet against the
full one.

**Schedule oracle.**  :class:`~repro.opt.pass_manager.PassManager` runs
its pipeline round-robin and stops as soon as every pass in a row has
reported zero changes.  The reference it must agree with is the plainest
schedule there is, written out below: whole rounds of every pass until a
whole round changes nothing.  Over seeded random programs on all three
guest frontends plus the richards macro-workload, each pre-mid-end
residual (``opt_config="none"``) is cloned and optimized both ways; the
printed IR, the serialized (artifact) bytes and the per-pass change
totals must be equal.

**Single-predecessor meet.**  ``SINGLE_PRED_FAST_MEET`` is the one
engine shortcut left with a kill switch; flipping it off must not move a
byte.
"""

import importlib
import json
import random

import pytest

from repro.backend import UnsupportedConstruct, compile_function
from repro.core.specialize import OPT_MAX_ROUNDS, SpecializeOptions
from repro.ir import print_function
from repro.ir.clone import clone_function
from repro.jsvm import JSRuntime
from repro.luavm.runtime import LuaRuntime
from repro.min.interp import PROGRAM_BASE, build_min_module, specialize_min
from repro.opt import PIPELINES, PassManager, get_pass
from repro.pipeline.serialize import function_to_dict
from repro.vm import VM
from test_differential import (
    random_js_source,
    random_lua_chunk,
    random_min_program,
)

from tests.helpers import corpus_program

N_MIN, N_LUA, N_JS = 10, 8, 4
RICHARDS = corpus_program("js/richards.js")

FAST = SpecializeOptions(backend="vm")
UNOPTIMIZED = SpecializeOptions(backend="vm", opt_config="none")


def _emitted_source(func):
    try:
        return compile_function(func).source
    except UnsupportedConstruct as exc:
        return f"<fallback: {exc}>"


def _reference_schedule(func):
    """Whole rounds of the default pipeline until one changes nothing
    (or the cap); returns the per-pass change totals."""
    get_pass("remove-unreachable")(func)
    changes = dict.fromkeys(PIPELINES["default"], 0)
    for _ in range(OPT_MAX_ROUNDS):
        changed = 0
        for name in PIPELINES["default"]:
            delta = get_pass(name)(func)
            changes[name] += delta
            changed += delta
        if not changed:
            break
    return changes


def _assert_schedule_oracle(tag, residuals, module):
    """PassManager ≡ the reference loop on every residual; returns the
    most rounds PassManager needed for any one function."""
    most_rounds = 0
    for name, func in residuals.items():
        managed, reference = clone_function(func), clone_function(func)
        stats = PassManager("default", max_rounds=OPT_MAX_ROUNDS).run(
            managed, module)
        changes = _reference_schedule(reference)
        managed_ir = print_function(managed, order="id")
        reference_ir = print_function(reference, order="id")
        assert managed_ir == reference_ir, (
            f"{tag}: residual IR for {name} diverged between PassManager "
            f"and the reference loop:\n--- managed ---\n{managed_ir}\n"
            f"--- reference ---\n{reference_ir}")
        # The artifact store persists exactly these serialized bytes.
        assert json.dumps(function_to_dict(managed)) == \
            json.dumps(function_to_dict(reference)), (
                f"{tag}: serialized artifact bytes for {name} diverged")
        assert {n: p.changes for n, p in stats.per_pass.items()} == \
            changes, f"{tag}: per-pass change totals for {name} diverged"
        most_rounds = max(most_rounds, stats.rounds)
    return most_rounds


def _residuals(runtime):
    return {p.function_name: runtime.module.functions[p.function_name]
            for p in runtime.compiler.processed}


@pytest.mark.parametrize("seed", range(N_MIN))
def test_min_fixpoint_determinism(seed):
    program = random_min_program(random.Random(0xF1A + seed))
    module = build_min_module(program)
    func = specialize_min(module, program, bool(seed % 2),
                          options=UNOPTIMIZED, name="spec")
    _assert_schedule_oracle(f"min seed {seed}", {"spec": func}, module)


@pytest.mark.parametrize("seed", range(N_LUA))
def test_lua_fixpoint_determinism(seed):
    rt = LuaRuntime(random_lua_chunk(random.Random(0xF1B + seed)))
    rt.aot_compile(UNOPTIMIZED)
    _assert_schedule_oracle(f"lua seed {seed}", _residuals(rt), rt.module)


@pytest.mark.parametrize("seed", range(N_JS))
def test_js_fixpoint_determinism(seed):
    source = random_js_source(random.Random(0xF1C + seed))
    config = "wevaled_state" if seed % 2 else "wevaled"
    rt = JSRuntime(source, config, options=UNOPTIMIZED)
    rt.aot_compile()
    _assert_schedule_oracle(f"js seed {seed}", _residuals(rt), rt.module)


# ---------------------------------------------------------------------------
# Richards: the S6.5 macro-workload — the schedule oracle again, plus
# how fast both fixpoints converge.
# ---------------------------------------------------------------------------

def test_richards_fixpoint_determinism():
    raw = JSRuntime(RICHARDS, "wevaled_state", options=UNOPTIMIZED)
    raw.aot_compile()
    most_rounds = _assert_schedule_oracle("richards", _residuals(raw),
                                          raw.module)
    assert most_rounds <= 3, (
        f"a richards residual took {most_rounds} mid-end rounds")

    rt = JSRuntime(RICHARDS, "wevaled_state", options=FAST)
    rt.aot_compile()
    stats = rt.compiler.total_stats
    assert stats.opt.fixpoint_cap_hits == 0
    assert stats.block_revisits < 1000  # priority worklist converges
    assert stats.revisit_rate() < 0.6, (
        f"specializer revisit rate {stats.revisit_rate():.2f}/visit")
    # Reducible interpreter CFGs make one-predecessor blocks dominant:
    # the sole-contributor fast path must cover most meets.
    assert stats.meets_single_pred * 2 >= stats.meets_performed, (
        f"single-pred fast path took {stats.meets_single_pred} of "
        f"{stats.meets_performed} meets")
    rt.run()
    assert rt.printed == ["13120"]


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
        rt = JSRuntime(RICHARDS, "wevaled_state", options=FAST)
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
