"""Fig. 12: tier-ratio progression, VM ("Wasm") platform vs Python
("native") platform.

Paper shape: on each platform the tiers get progressively faster —
generic interp < interp+ICs < compiled(+ICs) < optimized (native only);
the interp+ICs -> compiled step is similar on both platforms (that step
is exactly what weval provides).  Absolute numbers across platforms are
not comparable; the *ratios between adjacent tiers* are the result.

``test_fig12_emit_modes_json`` additionally walks the tier-3 backend's
emit-mode ladder on the residual snapshot — residual IR on the VM,
the flat dispatch-tree emitter, the structured emitter without fuel
batching (isolating control-structure + locals), and the full
structured emitter — against the hand-written native engine as the
ceiling, and emits ``results/BENCH_fig12.json`` for CI.  What it
asserts is deterministic (no emitter fallbacks, every rung's output
and fuel equal to the reference); the structured-over-dispatch ratio
on richards is reported in the table and the JSON, not asserted —
wall-clock numbers are compared parent against change by the ledger
(``benchmarks/ledger/``), not held to a floor here.
"""

import dataclasses
import json
import os
import time

import pytest

from conftest import (
    RESULTS_DIR,
    format_table,
    geomean,
    run_js_workload,
    write_result,
)
from repro.backend import compile_functions
from repro.core.specialize import SpecializeOptions
from repro.jsvm.native import NATIVE_TIERS, PyEngine
from repro.jsvm.runtime import JSRuntime
from repro.jsvm.workloads import WORKLOADS

SUBSET = ("richards", "deltablue", "splay", "crypto")

# The emit-mode ladder: each rung changes exactly one thing, so the
# interp -> native gap decomposes into per-step contributions.
EMIT_LADDER = (
    ("interp", None, True),            # residual IR on the VM
    ("dispatch", "dispatch", True),    # flat dispatch-tree Python
    ("structured-nobatch", "structured", False),  # + structure/locals
    ("structured", "structured", True),           # + fuel batching
)


@pytest.fixture(scope="module")
def vm_side():
    results = {}
    for name in SUBSET:
        results[name] = {
            config: run_js_workload(name, config).fuel
            for config in ("noic", "interp_ic", "wevaled_state")}
    return results


@pytest.fixture(scope="module")
def native_side():
    results = {}
    for name in SUBSET:
        per = {}
        for tier in NATIVE_TIERS:
            engine = PyEngine(WORKLOADS[name], tier)
            engine.run()  # warm caches / compile
            start = time.perf_counter()
            engine.run()
            per[tier] = time.perf_counter() - start
        results[name] = per
    return results


def test_fig12_table(benchmark, vm_side, native_side):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    vm_ic = geomean([vm_side[n]["noic"] / vm_side[n]["interp_ic"]
                     for n in SUBSET])
    vm_compiled = geomean([vm_side[n]["interp_ic"] /
                           vm_side[n]["wevaled_state"] for n in SUBSET])
    nat_ic = geomean([native_side[n]["generic"] /
                      native_side[n]["interp_ic"] for n in SUBSET])
    nat_base = geomean([native_side[n]["interp_ic"] /
                        native_side[n]["baseline"] for n in SUBSET])
    nat_opt = geomean([native_side[n]["baseline"] /
                       native_side[n]["optimized"] for n in SUBSET])
    rows = [
        ["VM ('Wasm')", "generic -> interp+ICs", f"{vm_ic:.2f}x"],
        ["VM ('Wasm')", "interp+ICs -> wevaled+state",
         f"{vm_compiled:.2f}x"],
        ["native (Py)", "generic -> interp+ICs", f"{nat_ic:.2f}x"],
        ["native (Py)", "interp+ICs -> baseline-compiled",
         f"{nat_base:.2f}x"],
        ["native (Py)", "baseline -> optimized", f"{nat_opt:.2f}x"],
    ]
    write_result("fig12_native",
                 "Fig. 12 analog — tier progression per platform "
                 "(geomean over %s)\n%s" % (", ".join(SUBSET),
                                            format_table(
                     ["platform", "step", "speedup"], rows)))
    # Shape: every step is a real improvement; weval's step on the VM
    # platform is comparable to the native baseline compiler's step.
    assert vm_ic > 1.0
    assert vm_compiled > 1.5
    assert nat_base > 1.0
    assert nat_opt > 1.0


def _emit_ladder_rows(name: str, repeats: int):
    """Best-of-``repeats`` wall seconds for each emit-ladder rung on one
    workload's residual snapshot, plus the native-engine ceiling.

    Every rung must print the same output and burn the same fuel — the
    ladder only re-shapes the emitted code, never the semantics."""
    rt = JSRuntime(WORKLOADS[name], "wevaled_state",
                   options=SpecializeOptions(emit_mode="structured"))
    rt.aot_compile()
    residuals = [p.function_name for p in rt.compiler.processed]

    rows = {}
    reference = None
    for label, mode, batch_fuel in EMIT_LADDER:
        if mode is None:
            backend = "vm"
        else:
            backend = "py"
            compiled, fallbacks = compile_functions(
                rt.module, residuals, mode=mode, batch_fuel=batch_fuel)
            assert not fallbacks, f"{name} {label}: {fallbacks}"
            rt.compiler.backend_functions = compiled
            rt.compiler._backend_compiled = True
        best = fuel = None
        for _ in range(repeats):
            mark = len(rt.printed)
            start = time.perf_counter()
            vm = rt.run(backend=backend)
            elapsed = time.perf_counter() - start
            printed = tuple(rt.printed[mark:])
            fuel = vm.stats.fuel
            best = elapsed if best is None else min(best, elapsed)
        if reference is None:
            reference = (printed, fuel)
        else:
            assert (printed, fuel) == reference, (
                f"{name} {label}: output/fuel diverged from interp")
        rows[label] = best

    engine = PyEngine(WORKLOADS[name], "optimized")
    engine.run()  # warm
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        engine.run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    rows["native"] = best
    return rows


def test_fig12_emit_modes_json(benchmark, request):
    """The tier-3 ladder on richards, persisted as BENCH_fig12.json:
    how much of the interp -> native log-gap each ladder step closes,
    and the structured-over-dispatch ratio (reported, not asserted; the
    asserts are ``_emit_ladder_rows``' deterministic ones)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    repeats = 3 if request.config.getoption("--quick") else 5
    workloads = (("richards",) if request.config.getoption("--quick")
                 else SUBSET)
    payload = {"workloads": {}}
    for name in workloads:
        rows = _emit_ladder_rows(name, repeats)
        interp, native = rows["interp"], rows["native"]
        steps = {
            "dispatch": rows["interp"] / rows["dispatch"],
            "structure+locals": rows["dispatch"] / rows["structured-nobatch"],
            "fuel-batching": rows["structured-nobatch"] / rows["structured"],
        }
        payload["workloads"][name] = {
            "seconds": rows,
            "speedup_over_interp": {
                label: interp / seconds for label, seconds in rows.items()},
            "step_speedups": steps,
            "structured_vs_dispatch":
                rows["dispatch"] / rows["structured"],
            "interp_to_native_gap": interp / native,
        }
    path = os.path.join(RESULTS_DIR, "BENCH_fig12.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    rows_txt = []
    for name, record in payload["workloads"].items():
        for label, _, _ in EMIT_LADDER:
            rows_txt.append([name, label,
                             f"{record['seconds'][label] * 1000:.1f}ms",
                             f"{record['speedup_over_interp'][label]:.2f}x"])
        rows_txt.append([name, "native",
                         f"{record['seconds']['native'] * 1000:.1f}ms",
                         f"{record['speedup_over_interp']['native']:.2f}x"])
    write_result("fig12_emit_modes",
                 "Tier-3 emit-mode ladder (best of %d)\n%s\n"
                 "richards structured over dispatch: %.2fx" % (
                     repeats, format_table(
                         ["workload", "tier", "wall", "vs interp"],
                         rows_txt),
                     payload["workloads"]["richards"]
                     ["structured_vs_dispatch"]))


def test_native_tiers_agree(benchmark, native_side):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in SUBSET:
        outputs = set()
        for tier in NATIVE_TIERS:
            engine = PyEngine(WORKLOADS[name], tier)
            engine.run()
            outputs.add(tuple(engine.printed))
        assert len(outputs) == 1
