"""S6.2 statistics: load/store elision by the state intrinsics.

Paper: across Octane, the virtualized stack intrinsics elide ~84% of
loads and ~76% of stores; the locals intrinsics elide less (~14%/~5%)
because GC safepoints (here: flushes at calls/allocations) force values
back to memory.  Shape target: stack elision high, locals elision lower.
"""

import pytest

from conftest import format_table, write_result
from repro.core.stats import SpecializationStats
from repro.jsvm import JSRuntime
from repro.jsvm.workloads import WORKLOADS

SUBSET = ("richards", "deltablue", "raytrace", "splay", "box2d", "crypto")


@pytest.fixture(scope="module")
def totals():
    total = SpecializationStats()
    for name in SUBSET:
        rt = JSRuntime(WORKLOADS[name], "wevaled_state")
        rt.aot_compile()
        total.merge(rt.compiler.total_stats)
    return total


def test_elision_table(benchmark, totals):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        ["stack loads", totals.stack_loads_elided,
         totals.stack_loads_real,
         f"{totals.stack_load_elision_rate():.0%}"],
        ["stack stores", totals.stack_stores_elided,
         totals.stack_stores_real,
         f"{totals.stack_store_elision_rate():.0%}"],
        ["local loads", totals.local_loads_elided,
         totals.local_loads_real,
         f"{totals.local_load_elision_rate():.0%}"],
        ["local stores", totals.local_stores_elided,
         totals.local_stores_real,
         f"{totals.local_store_elision_rate():.0%}"],
    ]
    write_result("state_elision",
                 "S6.2 analog — state-intrinsic elision (static sites, "
                 "suite subset)\n" + format_table(
                     ["kind", "elided", "real", "elision rate"], rows))
    # Shape: stack elision is high; locals are flushed at safepoints so
    # their store elision is lower than the stack's.
    assert totals.stack_load_elision_rate() > 0.5
    assert totals.stack_store_elision_rate() > 0.3
    assert (totals.local_store_elision_rate()
            <= totals.stack_store_elision_rate() + 0.05)


def test_state_opt_reduces_dynamic_memory_traffic(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """Dynamic check on one workload: the state-opt configuration issues
    far fewer real loads/stores at run time.

    Threshold calibration (measured on richards): against the
    *unoptimized* ``wevaled`` baseline (``opt_config="none"``) the state
    intrinsics elide most traffic — 12731 vs 31025 loads (0.41x) and
    1637 vs 32019 stores (0.05x).  The original 0.7x loads threshold
    predates the mid-end: its load-forwarding pass now removes redundant
    interpreter-frame loads from the *baseline* configuration too
    (31025 -> 16586), so the ratio against the optimized baseline is
    0.77x — the baseline got better, not the state opt worse.  We assert
    both views: a strong bound against the unoptimized baseline (what
    the intrinsics alone buy, the paper's S6.2 comparison) and a looser
    bound against the fully optimized one (the intrinsics still beat
    general-purpose load forwarding, which must respect aliasing the
    virtualized state does not)."""
    from repro.core.specialize import SpecializeOptions

    name = "richards"
    traffic = {}
    for config, opt_config in (("wevaled", "none"),
                               ("wevaled", "default"),
                               ("wevaled_state", "default")):
        rt = JSRuntime(WORKLOADS[name], config,
                       options=SpecializeOptions(opt_config=opt_config))
        vm = rt.run()
        traffic[(config, opt_config)] = (vm.stats.loads, vm.stats.stores)
    state_loads, state_stores = traffic[("wevaled_state", "default")]
    raw_loads, raw_stores = traffic[("wevaled", "none")]
    opt_loads, opt_stores = traffic[("wevaled", "default")]
    # vs the unoptimized interpreter frame traffic (measured 0.41/0.05).
    assert state_loads < raw_loads * 0.5
    assert state_stores < raw_stores * 0.1
    # vs the mid-end-optimized baseline (measured 0.77/0.05).
    assert state_loads < opt_loads * 0.85
    assert state_stores < opt_stores * 0.1
