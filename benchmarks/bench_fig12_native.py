"""Fig. 12: tier-ratio progression, VM ("Wasm") platform vs Python
("native") platform.

Paper shape: on each platform the tiers get progressively faster —
generic interp < interp+ICs < compiled(+ICs) < optimized (native only);
the interp+ICs -> compiled step is similar on both platforms (that step
is exactly what weval provides).  Absolute numbers across platforms are
not comparable; the *ratios between adjacent tiers* are the result.

Only the paper's own figure lives here.  The tier-3 backend's emitted
code is held to the VM's output and fuel by the differential tiers in
``tests/``, and its wall clock is compared parent against change by the
ledger (``benchmarks/ledger/``).
"""

import time

import pytest

from conftest import format_table, geomean, run_js_workload, write_result
from repro.jsvm.native import NATIVE_TIERS, PyEngine
from repro.jsvm.workloads import WORKLOADS

SUBSET = ("richards", "deltablue", "splay", "crypto")


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


def test_native_tiers_agree(benchmark, native_side):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in SUBSET:
        outputs = set()
        for tier in NATIVE_TIERS:
            engine = PyEngine(WORKLOADS[name], tier)
            engine.run()
            outputs.add(tuple(engine.printed))
        assert len(outputs) == 1
