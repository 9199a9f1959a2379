"""S3.4 ablation: naive max-SSA vs the minimal-cut strategy.

Paper: passing all values as block parameters everywhere yields up to a
5x increase in block-parameter count and much slower compilation of the
result.  Shape targets: the naive mode produces several-fold more block
parameters (before cleanup) and both modes execute identically.
"""

import pytest

from conftest import format_table, write_result
from repro.core import (
    Runtime,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
    specialize,
)
from repro.core.specialize import SpecializeOptions
from repro.min import PROGRAM_BASE, build_min_module, sum_to_n_program
from repro.vm import VM


@pytest.fixture(scope="module")
def ablation():
    program = sum_to_n_program(500)
    results = {}
    for mode in ("minimal", "naive"):
        module = build_min_module(program)
        request = SpecializationRequest(
            "min_interp",
            [SpecializedMemory(PROGRAM_BASE, program.size_bytes()),
             SpecializedConst(len(program.words)), Runtime()],
            specialized_name=f"min_{mode}")
        raw = specialize(module, request,
                         SpecializeOptions(ssa_mode=mode, opt_config="none"))
        params_raw = raw.total_block_params()
        module2 = build_min_module(program)
        opt = specialize(module2, request,
                         SpecializeOptions(ssa_mode=mode))
        module2.add_function(opt)
        vm = VM(module2)
        value = vm.call(opt.name, [PROGRAM_BASE, len(program.words), 0])
        results[mode] = {
            "params_raw": params_raw,
            "params_opt": opt.total_block_params(),
            "blocks": opt.num_blocks(),
            "result": value,
            "fuel": vm.stats.fuel,
        }
    return results, program


def test_ablation_table(benchmark, ablation):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results, program = ablation
    rows = [[mode, r["params_raw"], r["params_opt"], r["blocks"],
             r["fuel"]]
            for mode, r in results.items()]
    write_result("ssa_repair_ablation",
                 "S3.4 ablation — block parameters, naive vs minimal\n" +
                 format_table(["mode", "raw params", "post-opt params",
                               "blocks", "fuel"], rows))
    minimal = results["minimal"]
    naive = results["naive"]
    assert naive["result"] == minimal["result"] == \
        sum(range(501))
    # The paper's headline: several-fold parameter blow-up (up to 5x).
    assert naive["params_raw"] >= 3 * max(minimal["params_raw"], 1)


def test_naive_mode_compiles_slower(benchmark, ablation):
    """Specialization wall-clock in naive mode (compare against the
    minimal run in the pytest-benchmark table)."""
    program = sum_to_n_program(200)
    module = build_min_module(program)
    request = SpecializationRequest(
        "min_interp",
        [SpecializedMemory(PROGRAM_BASE, program.size_bytes()),
         SpecializedConst(len(program.words)), Runtime()])

    def run_naive():
        return specialize(module, request,
                          SpecializeOptions(ssa_mode="naive",
                                            opt_config="none"))

    benchmark.pedantic(run_naive, rounds=2, iterations=1)


def test_minimal_mode_compile_time(benchmark):
    program = sum_to_n_program(200)
    module = build_min_module(program)
    request = SpecializationRequest(
        "min_interp",
        [SpecializedMemory(PROGRAM_BASE, program.size_bytes()),
         SpecializedConst(len(program.words)), Runtime()])

    def run_minimal():
        return specialize(module, request,
                          SpecializeOptions(opt_config="none"))

    benchmark.pedantic(run_minimal, rounds=2, iterations=1)
