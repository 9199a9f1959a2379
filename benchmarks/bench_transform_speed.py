"""S6.5: transform speed, the specialization cache, and the tier-2
backend speedup.

Paper: ~1 KLoC/s of JS, with a cache keyed on module hash + request
argument data that removes redundant work for the unchanging IC corpus
and speeds up incremental recompilation.  Shape targets: throughput is
measurable and the warm-cache recompile is much faster with high hit
rate.  The backend test additionally reports compile-vs-run time and
the interp-vs-compiled wall-clock speedup of the richards residual,
which must clear 3x (the whole point of tier 2).

``--quick`` (CI artifact mode) keeps every assertion and only reduces
the backend-speedup timing repeats (best-of-3 instead of best-of-5 —
never below 3, because the 3x assertion gates CI on shared runners).
"""

import os
import time

import pytest

from conftest import write_result
from repro.bench import (
    format_pipeline_stats,
    format_table,
    run_backend_comparison,
    run_engine_cache_report,
    run_profiled,
)
from repro.core import SpecializationCache
from repro.core.specialize import SpecializeOptions
from repro.jsvm import JSRuntime
from repro.jsvm.workloads import WORKLOADS

NAME = "richards"

# CI persists this directory across runs (actions/cache keyed on the
# source hash), so the cold row there is only cold on the first run
# after a source change.
CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or None


def _aot_seconds(cache=None, profiled=False):
    rt = JSRuntime(WORKLOADS[NAME], "wevaled_state", cache=cache)
    start = time.perf_counter()
    profile_table = None
    if profiled:
        _, profile_table = run_profiled(rt.aot_compile)
    else:
        rt.aot_compile()
    return time.perf_counter() - start, rt, profile_table


def test_transform_speed_and_cache(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cache = SpecializationCache()
    # Under REPRO_PROFILE=1 the cold AOT runs inside cProfile, so its
    # wall-clock row carries tracing overhead — labeled below.
    cold_seconds, rt, profile_table = _aot_seconds(cache, profiled=True)
    warm_seconds, rt2, _ = _aot_seconds(cache)
    source_lines = len([l for l in WORKLOADS[NAME].splitlines()
                        if l.strip()])
    loc_per_s = source_lines / max(cold_seconds, 1e-9)
    stats = rt.compiler.total_stats
    opt = stats.opt
    pass_runs = sum(p.runs for p in opt.per_pass.values())
    pass_skips = sum(p.skips for p in opt.per_pass.values())
    rows = [
        ["cold AOT" + (" (profiled)" if profile_table else ""),
         f"{cold_seconds:.2f}s", f"{loc_per_s:.0f} LoC/s"],
        ["warm AOT (cache)", f"{warm_seconds:.2f}s",
         f"hits={cache.hits} misses={cache.misses}"],
        ["specializer blocks", stats.blocks_specialized,
         f"revisits={stats.block_revisits} "
         f"(rate {stats.revisit_rate():.2f}/visit)"],
        ["specializer meets", stats.meets_performed,
         f"skipped={stats.meets_skipped} (inputs unchanged)"],
        # PR 5 compile-side satellites: sole-predecessor meets reuse the
        # predecessor's out-state instead of the slot-by-slot meet, and
        # _transcribe_instr dispatches through a precomputed per-opcode
        # table.  Measured on richards: cold AOT 0.25s -> ~0.18s
        # best-of-3 (~25% faster), output byte-identical (fixpoint tier
        # + goldens unchanged).
        ["single-pred fast meets", stats.meets_single_pred,
         f"{stats.meets_single_pred / max(stats.meets_performed, 1):.0%} "
         f"of meets bypass the slot walk"],
        ["lattice interning", f"{stats.intern_hit_rate():.1%} hits",
         f"hits={stats.intern_hits} misses={stats.intern_misses}"],
        ["mid-end", f"{opt.seconds:.2f}s",
         f"instrs {opt.instrs_before}->{opt.instrs_after} "
         f"rounds={opt.rounds} cap_hits={opt.fixpoint_cap_hits}"],
        ["mid-end scheduling", f"{pass_runs} pass runs",
         f"skipped={pass_skips} "
         f"(detector={opt.passes_skipped_nowork}, "
         f"{opt.workcheck_seconds:.3f}s in detectors)"],
    ]
    report = ("S6.5 analog — transform speed and cache\n" +
              format_table(["metric", "value", "detail"], rows) +
              "\n\nper-pass mid-end stats (cold AOT)\n" +
              format_pipeline_stats(opt))
    if profile_table:
        report += "\n\n" + profile_table
    write_result("transform_speed", report)
    # The mid-end must actually shrink the residual code it was fed.
    assert opt.instrs_after < opt.instrs_before
    assert cache.hits > 0
    assert warm_seconds < cold_seconds
    # --- transform-speed regression guards (PR 4 fixpoint engine) -----
    # Deterministic counters first: the priority worklist must keep
    # re-flows rare (seed engine: 4816 revisits, 0.86/visit; measured
    # now: 497, 0.38/visit), and two-level mid-end skipping must elide
    # at least half of the exhaustive pass executions (seed: 210 runs,
    # 0 skipped; measured now: 48 runs, 162 skipped).
    assert stats.block_revisits < 1000, (
        f"specializer re-flow regression: {stats.block_revisits} revisits")
    assert stats.revisit_rate() < 0.6, (
        f"specializer revisit rate regression: {stats.revisit_rate():.2f}")
    assert pass_runs * 2 <= pass_runs + pass_skips, (
        f"mid-end dirty-set regression: {pass_runs} runs vs "
        f"{pass_skips} skips (need >= 2x reduction)")
    # Reducible interpreter CFGs make one-predecessor blocks dominant;
    # the sole-contributor fast path must cover most meets (measured:
    # ~89% on richards).
    assert stats.meets_single_pred * 2 >= stats.meets_performed, (
        f"single-pred meet fast path regression: "
        f"{stats.meets_single_pred} of {stats.meets_performed}")
    # Wall-clock guard, with generous slack for shared CI runners and
    # cProfile overhead (measured locally: ~90 LoC/s un-profiled against
    # the 33 LoC/s seed baseline).
    assert loc_per_s >= 20, (
        f"cold AOT throughput regression: {loc_per_s:.0f} LoC/s")
    # Functional equivalence after a cached compile.
    vm = rt2.run()
    assert rt2.printed == ["13120"]


def test_backend_speedup(benchmark, request):
    """Interp-vs-compiled execution of the richards residual (tier 2).

    One AOT compile, then the same snapshot runs both ways; prints and
    fuel must be identical (asserted inside the harness helper), and the
    compiled backend must be at least 3x faster in wall-clock terms.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Keep best-of-3 smoothing even in --quick mode: the timed runs are
    # tens of milliseconds and the 3x assertion gates CI, so robustness
    # against a noisy shared runner matters more than the saved rounds.
    repeats = 3 if request.config.getoption("--quick") else 5
    cmp = run_backend_comparison(NAME, "wevaled_state", repeats=repeats)
    rows = [
        ["specialize (AOT)", f"{cmp.aot_seconds:.2f}s",
         f"{cmp.compiled_functions} residual functions"],
        ["backend compile", f"{cmp.backend_compile_seconds:.3f}s",
         f"fallbacks={cmp.backend_fallbacks}"],
        ["dispatch targets",
         f"{cmp.residual_blocks}->{cmp.dispatch_blocks}",
         f"{cmp.fallthrough_links} jumps became fall-through"],
        ["run (IR VM)", f"{cmp.wall_vm_seconds * 1000:.1f}ms",
         f"fuel={cmp.fuel}"],
        ["run (py backend)", f"{cmp.wall_py_seconds * 1000:.1f}ms",
         "fuel identical (asserted)"],
        ["speedup", f"{cmp.speedup:.2f}x", "interp vs compiled"],
    ]
    # Engine artifact cache: cold vs warm compile, serial (jobs=1) vs
    # the process pool (jobs=2).  (The warm-start contract — zero
    # functions specialized, residual IR byte-identical — is asserted
    # inside the helper.)
    for jobs in (1, 2):
        report = run_engine_cache_report(
            NAME, "wevaled_state", options=SpecializeOptions(
                jobs=jobs, cache_dir=(CACHE_DIR if jobs == 1 else None)))
        rows.append(
            [f"engine AOT cold (jobs={jobs})",
             f"{report.cold_seconds:.2f}s",
             f"{report.cold_specialized} specialized, "
             f"{report.requests} requests"])
        rows.append(
            [f"engine AOT warm (jobs={jobs})",
             f"{report.warm_seconds:.2f}s",
             f"{report.warm_artifact_hits} artifact hits, "
             f"0 specialized"])
        assert report.warm_seconds < report.cold_seconds or \
            report.cold_specialized == 0  # pre-warmed CI cache dir
    write_result("backend_speedup",
                 "Tier-2 backend — %s (%s)\n%s" % (
                     NAME, cmp.config,
                     format_table(["metric", "value", "detail"], rows)))
    assert cmp.backend_fallbacks == 0
    assert cmp.fallthrough_links > 0  # the scheduler found jump chains
    assert cmp.speedup >= 3.0, (
        f"py backend speedup {cmp.speedup:.2f}x < 3x on {NAME}")


def test_code_object_cache_warm_start(benchmark, tmp_path):
    """Tier 3½ (PR 10): the artifact store persists ``compile()``d code
    objects (marshal, keyed by interpreter magic) beside emitted source,
    so a warm start skips Python parse+compile entirely.

    One cold compile populates the store; a fresh warm runtime replays
    it and must report a code hit for every source hit while producing
    the same result (byte-identity is the engine warm-start contract
    asserted elsewhere; here the warm path must at least *run*
    identically)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    store = str(tmp_path / "store")

    def aot():
        rt = JSRuntime(WORKLOADS[NAME], "wevaled_state",
                       options=SpecializeOptions(backend="py",
                                                 cache_dir=store))
        start = time.perf_counter()
        rt.aot_compile()
        return time.perf_counter() - start, rt

    cold_seconds, rt_cold = aot()
    warm_seconds, rt_warm = aot()
    warm_stats = rt_warm.compiler.engine.stats
    rows = [
        ["cold AOT", f"{cold_seconds:.2f}s",
         f"{rt_cold.compiler.engine.stats.functions_specialized} "
         f"specialized, store populated"],
        ["warm AOT (code-object cache)", f"{warm_seconds:.3f}s",
         f"{warm_stats.backend_code_hits} code hits "
         f"(compile() skipped)"],
    ]
    write_result("transform_speed_code_cache",
                 "Tier 3½ — precompiled-code warm start\n" +
                 format_table(["metric", "value", "detail"], rows))
    assert warm_stats.functions_specialized == 0
    assert warm_stats.backend_code_hits > 0
    assert warm_stats.backend_code_hits == warm_stats.backend_source_hits
    rt_warm.run()
    assert rt_warm.printed == ["13120"]


def test_cache_is_invalidated_by_bytecode_change(benchmark):
    """Different bytecode (different constant) must miss the cache."""
    cache = SpecializationCache()
    rt_a = JSRuntime(WORKLOADS[NAME], "wevaled_state", cache=cache)
    rt_a.aot_compile()
    misses_before = cache.misses
    changed = WORKLOADS[NAME].replace("schedule(40)", "schedule(41)")
    rt_b = JSRuntime(changed, "wevaled_state", cache=cache)
    rt_b.aot_compile()
    assert cache.misses > misses_before  # main's bytecode changed

    def run():
        return rt_b.run()

    benchmark.pedantic(run, rounds=2, iterations=1)
