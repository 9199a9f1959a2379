"""Fig. 8: the Min interpreter across execution strategies.

Paper shape: the interpreter on the VM is many times slower than the
directly-compiled program; weval removes most of the gap; adding the
register intrinsics ("+ locals opt") lands within ~1% of compiled code.
"""

import pytest

from conftest import format_table, write_result
from repro.min import run_fig8_configs

N = 2000


@pytest.fixture(scope="module")
def fig8_results():
    # backend="py" adds the tier-2 rows (wevaled residuals compiled to
    # native Python) next to the IR-VM rows.
    return run_fig8_configs(n=N, backend="py")


def test_fig8_table(benchmark, fig8_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base = fig8_results["compiled"].fuel
    rows = []
    for name in ("compiled", "py_interp", "vm_interp", "wevaled",
                 "wevaled_state", "wevaled_py", "wevaled_state_py"):
        r = fig8_results[name]
        fuel = "-" if r.fuel is None else str(r.fuel)
        rel = "-" if r.fuel is None else f"{r.fuel / base:.2f}x"
        rows.append([name, r.result, fuel, rel,
                     f"{r.wall_seconds * 1000:.1f}ms"])
    vm_wall = fig8_results["wevaled_state"].wall_seconds
    py_wall = fig8_results["wevaled_state_py"].wall_seconds
    speedup = vm_wall / max(py_wall, 1e-12)
    write_result("fig8_min", "Fig. 8 analog — Min (sum 0..%d)\n%s\n\n"
                 "tier-2 backend: wevaled_state %.1fms (IR VM) vs %.1fms "
                 "(py backend) = %.2fx" % (
                     N, format_table(
                         ["config", "result", "fuel", "fuel vs compiled",
                          "wall"],
                         rows),
                     vm_wall * 1000, py_wall * 1000, speedup))
    # Shape assertions from the paper.
    interp = fig8_results["vm_interp"].fuel
    wevaled = fig8_results["wevaled"].fuel
    state = fig8_results["wevaled_state"].fuel
    assert interp > 5 * base            # interpretation overhead is large
    assert wevaled < interp / 2         # weval removes dispatch
    assert state < wevaled              # state opt removes memory traffic
    assert state <= base * 1.01         # within ~1% of compiled (S5)
    # Tier-2 backend: identical deterministic fuel, faster wall clock.
    assert fig8_results["wevaled_py"].fuel == wevaled
    assert fig8_results["wevaled_state_py"].fuel == state
    assert py_wall < vm_wall


@pytest.mark.parametrize("config", ["compiled", "vm_interp", "wevaled",
                                    "wevaled_state"])
def test_fig8_wall_clock(benchmark, config, fig8_results):
    """pytest-benchmark wall-clock per configuration (VM platform)."""
    from repro.min import build_min_module, specialize_min, sum_to_n_program
    from repro.min.harness import SUM_COMPILED_SRC
    from repro.min.interp import PROGRAM_BASE
    from repro.frontend import compile_source
    from repro.vm import VM

    program = sum_to_n_program(200)
    module = build_min_module(program)
    compile_source(SUM_COMPILED_SRC).add_to_module(module)
    func_names = {
        "compiled": ("sum_compiled", [200]),
        "vm_interp": ("min_interp",
                      [PROGRAM_BASE, len(program.words), 0]),
    }
    if config == "wevaled":
        func = specialize_min(module, program, use_intrinsics=False)
        func_names[config] = (func.name,
                              [PROGRAM_BASE, len(program.words), 0])
    elif config == "wevaled_state":
        func = specialize_min(module, program, use_intrinsics=True)
        func_names[config] = (func.name,
                              [PROGRAM_BASE, len(program.words), 0])
    name, args = func_names[config]

    def run():
        return VM(module).call(name, args)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result == 200 * 201 // 2
