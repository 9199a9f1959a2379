"""Benchmark helpers: per-config workload execution, geomean, tables,
mid-end (pass pipeline) reporting, and opt-in AOT profiling
(``REPRO_PROFILE=1``)."""

from __future__ import annotations

import dataclasses
import math
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.specialize import SpecializeOptions
from repro.core.stats import PipelineStats
from repro.ir.function import Function
from repro.ir.instructions import guard_is_resuming, guard_site
from repro.jsvm import JSRuntime
from repro.jsvm.workloads import WORKLOADS


@dataclasses.dataclass
class WorkloadResult:
    name: str
    config: str
    printed: List[str]
    fuel: int
    wall_seconds: float
    compile_seconds: float = 0.0
    specialized_functions: int = 0
    backend: str = "vm"
    backend_compile_seconds: float = 0.0
    backend_fallbacks: int = 0


def run_js_workload(name: str, config: str,
                    runtime: Optional[JSRuntime] = None,
                    backend: Optional[str] = None) -> WorkloadResult:
    """Instantiate (or reuse) a JSRuntime for one workload/config and
    execute it once, separating specialize time, backend-compile time,
    and run time."""
    source = WORKLOADS[name]
    rt = runtime or JSRuntime(source, config)
    compile_seconds = 0.0
    is_aot = config in ("wevaled", "wevaled_state")
    if is_aot and rt.compiler is None:
        start = time.perf_counter()
        rt.aot_compile()
        compile_seconds = time.perf_counter() - start
    # Non-AOT configs have no residual code, so no tier-2 code can run;
    # label them "vm" regardless of the requested/default backend.
    backend = (backend or rt.options.backend) if is_aot else "vm"
    backend_compile = 0.0
    if is_aot and backend == "py":
        before = rt.compiler.backend_compile_seconds
        rt.compiler.compile_backend()  # idempotent; no-op when done
        backend_compile = rt.compiler.backend_compile_seconds - before
    start = time.perf_counter()
    vm = rt.run(backend=backend) if is_aot else rt.run()
    wall = time.perf_counter() - start
    return WorkloadResult(
        name=name,
        config=config,
        printed=list(rt.printed),
        fuel=vm.stats.fuel,
        wall_seconds=wall,
        compile_seconds=compile_seconds,
        specialized_functions=rt.specialized_function_count(),
        backend=backend,
        backend_compile_seconds=backend_compile,
        backend_fallbacks=(len(rt.compiler.backend_fallbacks)
                           if rt.compiler is not None else 0),
    )


@dataclasses.dataclass
class BackendComparison:
    """Interp-vs-compiled execution of one workload's residual code."""

    name: str
    config: str
    fuel: int                     # identical across backends by contract
    aot_seconds: float            # specialize + mid-end
    backend_compile_seconds: float
    compiled_functions: int
    backend_fallbacks: int
    wall_vm_seconds: float        # residual IR on the VM (best of repeats)
    wall_py_seconds: float        # residual compiled to Python
    # Fall-through scheduler accounting over the compiled residuals.
    residual_blocks: int = 0
    dispatch_blocks: int = 0
    fallthrough_links: int = 0

    @property
    def speedup(self) -> float:
        return self.wall_vm_seconds / max(self.wall_py_seconds, 1e-12)


def dispatch_stats(module, names) -> Tuple[int, int, int]:
    """(total blocks, dispatch targets, fall-through links) across the
    named functions — the static dispatch-count delta of the emitter's
    fall-through block scheduler (emit-only; nothing is executed)."""
    from repro.backend import PyEmitter, UnsupportedConstruct
    blocks = dispatch = links = 0
    for name in names:
        func = module.functions.get(name)
        if func is None:
            continue
        emitter = PyEmitter(func, module)
        try:
            emitter.emit_source()
        except UnsupportedConstruct:
            continue
        blocks += func.num_blocks()
        dispatch += emitter.dispatch_blocks
        links += emitter.fallthrough_links
    return blocks, dispatch, links


def run_backend_comparison(name: str, config: str = "wevaled_state",
                           repeats: int = 3,
                           options: Optional[SpecializeOptions] = None
                           ) -> BackendComparison:
    """AOT-compile one workload once, then run the snapshot both ways —
    residual IR on the VM and residual compiled to Python — asserting
    identical printed output and fuel before reporting the speedup.

    ``options`` configures the compilation engine (worker processes and
    persistent artifact store), which must not change any output, only
    compile time."""
    rt = JSRuntime(WORKLOADS[name], config, options=options)
    start = time.perf_counter()
    rt.aot_compile()
    aot_seconds = time.perf_counter() - start
    rt.compiler.compile_backend()  # up front, outside the timed runs

    def best_run(backend: str):
        best = None
        fuel = printed = None
        for _ in range(repeats):
            mark = len(rt.printed)
            start = time.perf_counter()
            vm = rt.run(backend=backend)
            elapsed = time.perf_counter() - start
            printed = rt.printed[mark:]
            fuel = vm.stats.fuel
            best = elapsed if best is None else min(best, elapsed)
        return best, fuel, printed

    wall_vm, fuel_vm, printed_vm = best_run("vm")
    wall_py, fuel_py, printed_py = best_run("py")
    assert printed_vm == printed_py, (
        f"{name}: backend output diverged: {printed_vm!r} != {printed_py!r}")
    assert fuel_vm == fuel_py, (
        f"{name}: backend fuel diverged: {fuel_vm} != {fuel_py}")
    blocks, dispatch, links = dispatch_stats(
        rt.module, [p.function_name for p in rt.compiler.processed])
    return BackendComparison(
        name=name,
        config=config,
        fuel=fuel_vm,
        aot_seconds=aot_seconds,
        backend_compile_seconds=rt.compiler.backend_compile_seconds,
        compiled_functions=len(rt.compiler.backend_functions),
        backend_fallbacks=len(rt.compiler.backend_fallbacks),
        wall_vm_seconds=wall_vm,
        wall_py_seconds=wall_py,
        residual_blocks=blocks,
        dispatch_blocks=dispatch,
        fallthrough_links=links,
    )


@dataclasses.dataclass
class EngineCacheReport:
    """Cold-vs-warm engine compile of one workload (one worker count).

    The warm run is a *fresh* runtime over the same artifact store; the
    engine's warm-start contract (asserted here) is that it specializes
    zero functions and produces byte-identical residual IR."""

    name: str
    config: str
    jobs: int
    requests: int
    cold_seconds: float
    warm_seconds: float
    cold_specialized: int
    warm_specialized: int
    warm_artifact_hits: int


def run_engine_cache_report(name: str, config: str = "wevaled_state",
                            options: Optional[SpecializeOptions] = None
                            ) -> EngineCacheReport:
    """Measure cold (empty artifact store) vs warm (fully populated)
    AOT compile time through the engine path.  ``options.cache_dir``
    names the store to fill; without one a temporary store is used."""
    import shutil
    import tempfile
    from repro.ir import print_function

    options = options or SpecializeOptions()
    own_dir = options.cache_dir is None
    if own_dir:
        options = dataclasses.replace(
            options, cache_dir=tempfile.mkdtemp(prefix="repro-aot-"))
    try:
        rt_cold = JSRuntime(WORKLOADS[name], config, options=options)
        start = time.perf_counter()
        rt_cold.aot_compile()
        cold_seconds = time.perf_counter() - start
        cold_stats = rt_cold.compiler.engine.stats

        rt_warm = JSRuntime(WORKLOADS[name], config, options=options)
        start = time.perf_counter()
        rt_warm.aot_compile()
        warm_seconds = time.perf_counter() - start
        warm_stats = rt_warm.compiler.engine.stats
        # Warm-start contract: everything loads, nothing recompiles,
        # and the residual IR is byte-identical.
        if cold_stats.functions_specialized > 0:
            assert warm_stats.functions_specialized == 0, (
                f"{name}: warm engine run recompiled "
                f"{warm_stats.functions_specialized} function(s)")
        assert len(rt_cold.compiler.processed) == \
            len(rt_warm.compiler.processed) == warm_stats.requests, (
                f"{name}: cold/warm processed request counts diverged")
        for cold_p, warm_p in zip(rt_cold.compiler.processed,
                                  rt_warm.compiler.processed):
            cold_ir = print_function(
                rt_cold.module.functions[cold_p.function_name], order="id")
            warm_ir = print_function(
                rt_warm.module.functions[warm_p.function_name], order="id")
            assert cold_ir == warm_ir, (
                f"{name}: warm residual {warm_p.function_name} diverged")
        return EngineCacheReport(
            name=name,
            config=config,
            jobs=options.jobs,
            requests=warm_stats.requests,
            cold_seconds=cold_seconds,
            warm_seconds=warm_seconds,
            cold_specialized=cold_stats.functions_specialized,
            warm_specialized=warm_stats.functions_specialized,
            warm_artifact_hits=warm_stats.artifact_hits,
        )
    finally:
        if own_dir:
            shutil.rmtree(options.cache_dir, ignore_errors=True)


def profiling_enabled() -> bool:
    """True when ``REPRO_PROFILE=1`` asks benches to profile AOT work."""
    return os.environ.get("REPRO_PROFILE", "") == "1"


def run_profiled(fn: Callable[[], object],
                 top: int = 15) -> Tuple[object, Optional[str]]:
    """Call ``fn`` and, when ``REPRO_PROFILE=1``, run it under
    :mod:`cProfile` and render the ``top`` entries by cumulative time as
    a table — so every transform-speed report starts from data, not
    guesses.  Returns ``(fn's result, table text or None)``.

    Profiling inflates wall-clock (tracing overhead), so callers should
    time the un-profiled path separately or label profiled numbers."""
    if not profiling_enabled():
        return fn(), None
    import cProfile
    import pstats

    profile = cProfile.Profile()
    result = profile.runcall(fn)
    stats = pstats.Stats(profile)
    stats.sort_stats("cumulative")
    rows: List[List[object]] = []
    for func_key in stats.fcn_list[:top]:  # sorted by the call above
        _cc, nc, tt, ct, _callers = stats.stats[func_key]
        filename, lineno, name = func_key
        where = (name if filename.startswith(("<", "~"))
                 else f"{os.path.basename(filename)}:{lineno}({name})")
        rows.append([f"{ct:.3f}s", f"{tt:.3f}s", nc, where])
    table = format_table(["cumtime", "tottime", "calls",
                          f"function (top {top} by cumulative)"], rows)
    return result, (f"cProfile of AOT (REPRO_PROFILE=1): "
                    f"{stats.total_tt:.3f}s total in "
                    f"{stats.total_calls} calls\n{table}")


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def residual_shape(func: Function) -> Tuple[int, int, int]:
    """(instructions, blocks, non-entry block params) of a residual
    function — the static code-size axes the paper's S6.4 tracks."""
    return (func.num_instrs(), func.num_blocks(), func.total_block_params())


def guard_kind_counts(functions: Iterable[Function]) -> Dict[str, int]:
    """Count guard instructions by immediate form across ``functions``:
    ``entry`` (legacy monomorphic unwinding guards at function entry),
    ``site`` (polymorphic unwinding site guards), and ``resuming``
    (notify-and-fall-through site guards) — the observability axis for
    the speculative-inlining reports."""
    counts = {"entry": 0, "site": 0, "resuming": 0}
    for func in functions:
        for block in func.blocks.values():
            for instr in block.instrs:
                if instr.op != "guard":
                    continue
                if guard_is_resuming(instr.imm):
                    counts["resuming"] += 1
                elif guard_site(instr.imm) is not None:
                    counts["site"] += 1
                else:
                    counts["entry"] += 1
    return counts


def format_pipeline_stats(stats: PipelineStats) -> str:
    """Render mid-end pipeline stats as a paper-style table: one row per
    pass plus a summary row, for the transform-speed reports.

    Every column aggregates the same quantity in every row: ``runs``
    counts pass *executions* (not pipeline invocations), ``skips``
    counts scheduler-proven no-ops, and the ``total`` row is the column
    sum over passes.  Pipeline-level context (function count, rounds,
    instruction delta, wall time) goes on its own line so it can't be
    misread as a pass counter."""
    rows: List[List[object]] = []
    for name in sorted(stats.per_pass):
        pass_stats = stats.per_pass[name]
        rows.append([name, pass_stats.runs, pass_stats.skips,
                     pass_stats.changes, f"{pass_stats.seconds:.3f}s"])
    per_pass = list(stats.per_pass.values())
    rows.append(["total",
                 sum(p.runs for p in per_pass),
                 sum(p.skips for p in per_pass),
                 sum(p.changes for p in per_pass),
                 f"{sum(p.seconds for p in per_pass):.3f}s"])
    table = format_table(
        ["pass", "runs", "skips", "changes", "pass time"], rows)
    table += (f"\n{stats.runs} function(s), {stats.rounds} round(s), "
              f"{stats.instrs_before}->{stats.instrs_after} instrs, "
              f"{stats.seconds:.3f}s pipeline "
              f"({stats.workcheck_seconds:.3f}s in work detectors)")
    table += (f"\ninline: attempted={stats.inline_attempted} "
              f"committed={stats.inline_committed} "
              f"rejected_size={stats.inline_rejected_size}")
    if stats.fixpoint_cap_hits:
        table += (f"\nWARNING: fixpoint round cap hit on "
                  f"{stats.fixpoint_cap_hits} function(s)")
    return table


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table, the way the paper's harness prints results."""
    widths = [len(h) for h in headers]
    rendered = [[str(c) for c in row] for row in rows]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)
