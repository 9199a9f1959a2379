"""Speculative inlining: steady-state call-chain speedup (PR 8).

The production question PR 8 answers: once a tiered service has settled
— every hot function compiled to tier 2 — the remaining per-request
cost on call-heavy guest code is the *call chain itself*: each guest
call re-enters the interpreter's dispatch sequence (arg-copy stores,
callee struct load, ``spec``-slot check, indirect call) even though
both caller and callee are compiled.  Speculative inlining splices the
hot callee bodies into the caller's residual behind polymorphic site
guards, so the steady-state chain runs guard-plus-straight-line code.

Workload: a richards-flavored scheduler whose work packets are handled
by tiny first-class handler functions.  ``schedule`` drives three
``dispatch(handler, x)`` sites (monomorphic on ``dispatch``) plus one
direct ``f(i)`` site that alternates between two handlers — a genuine
*polymorphic* site that specializes to a two-way guard chain under the
default ``inline_max_targets=2``.  The handler bodies are small enough
that call overhead dominates: the shape inlining targets, hot chains
of small compiled callees.

Both configurations run the PR 7 staged pipeline (``threshold=2``,
``compile_threshold=3``, structured emit, py backend); the only delta
is ``inline=True``.  Reported metrics:

* **fuel per request** — the deterministic cost model, measured on one
  ``schedule(5)`` request after both services settled.  This is the
  primary regression guard (>= 1.2x), immune to machine noise;
* **steady-state latency** — best-observed wall clock for a
  ``schedule(50)`` request over interleaved batches (guarded at a
  noise-tolerant >= 1.05x);
* **inline decisions** — sites planned / candidates rejected / guard
  misses / site demotions from the controller, plus the splice-level
  attempted / committed / rejected-by-size counters and the engine's
  inline-plan request count.

The warm-store test replays the inlined service against a populated
artifact store: every residual (inlined plans included) must load from
disk with **zero fresh specializations**.

Regression guards (CI, ``--quick``): fuel ratio >= 1.2x, wall speedup
>= 1.05x, >= 4 sites planned (at least one polymorphic) with no misses
or demotions, identical responses across generic / staged /
staged+inline, and a warm-store replay with
``functions_specialized == 0``.  Measured locally (py backend,
structured emit): fuel 6953 vs 5446 per schedule(5) (1.28x), wall
~7.8ms vs ~6.2ms per schedule(50) (~1.26x), 4 sites planned in the
``schedule`` residual (three monomorphic ``dispatch`` sites + one
2-way polymorphic handler site), 0 misses, 0 demotions.
"""

import dataclasses
import time

from conftest import write_result
from repro.bench import format_table, guard_kind_counts
from repro.core.specialize import SpecializeOptions
from repro.jsvm import JSRuntime
from repro.jsvm.runtime import SPEC_FIELD_WORD
from repro.jsvm.values import VALUE_UNDEFINED, box_double, unbox_double

CALLCHAIN_SERVICE = """
function idleHandler(x) { return x + 1; }
function workHandler(x) { return x * 2 - 1; }
function deviceHandler(x) { return x + 3; }
function dispatch(f, x) { return f(x); }
function schedule(rounds) {
  var total = 0;
  for (var r = 0; r < rounds; r++) {
    var i = 0;
    while (i < 4) {
      total = total + dispatch(idleHandler, i);
      total = total + dispatch(workHandler, i);
      total = total + dispatch(deviceHandler, i);
      var f = idleHandler;
      if (i % 2 == 1) { f = workHandler; }
      total = total + f(i);
      i++;
    }
  }
  return total;
}
print(0);
"""

# The staged PR 7 configuration both services share; ``inline`` is the
# only delta under measurement.
STAGED = dict(threshold=2, compile_threshold=3)
INLINE = dict(inline=True, inline_min_site_calls=2)


class Service:
    """A JS runtime served host-side through the ``spec`` slots (same
    dispatch shape as bench_tiering's Service), running under the
    staged dynamic tier-up pipeline."""

    def __init__(self, source: str, cache_dir=None, options=None,
                 **tiered_kwargs):
        options = options or SpecializeOptions(backend="py",
                                               emit_mode="structured")
        if cache_dir is not None:
            options = dataclasses.replace(options, cache_dir=cache_dir)
        self.rt = JSRuntime(source, "wevaled_state", options=options)
        self.structs = {f.name: self.rt.func_addrs[f.index]
                        for f in self.rt.compiled.functions}
        self.vm = self.rt.run(mode="tiered", **tiered_kwargs)
        self.controller = self.rt.controller

    def serve(self, name: str, arg: float) -> float:
        vm, rt = self.vm, self.rt
        struct = self.structs[name]
        vm.store_u64(rt.frame_base, VALUE_UNDEFINED)
        vm.store_u64(rt.frame_base + 8, box_double(float(arg)))
        spec = vm.load_u64(struct + SPEC_FIELD_WORD * 8)
        if spec:
            return unbox_double(vm.call_table(spec,
                                              [struct, rt.frame_base]))
        return unbox_double(vm.call(rt.generic_entry,
                                    [struct, rt.frame_base]))

    def settle(self, n=40):
        """Drive schedule(1) until every tier (and the inline respec of
        the caller) has installed; returns the responses."""
        return [self.serve("schedule", 1) for _ in range(n)]

    def fuel_for(self, arg) -> int:
        before = self.vm.stats.fuel
        self.serve("schedule", arg)
        return self.vm.stats.fuel - before

    def engine_stats(self):
        return self.controller.compiler.engine.stats


def _best_latency(services, arg, batches, per_batch):
    """Interleaved best-of measurement (see bench_tiering: robust to
    one-sided machine noise)."""
    best = [float("inf")] * len(services)
    for _ in range(batches):
        for i, service in enumerate(services):
            for _ in range(per_batch):
                begin = time.perf_counter()
                service.serve("schedule", arg)
                best[i] = min(best[i], time.perf_counter() - begin)
    return best


def test_inlining_callchain_speedup(benchmark, request):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    quick = request.config.getoption("--quick")

    generic = Service(CALLCHAIN_SERVICE, threshold=float("inf"))
    baseline = Service(CALLCHAIN_SERVICE, **STAGED)
    inlined = Service(CALLCHAIN_SERVICE, **STAGED, **INLINE)

    # Settle all tiers; every configuration must answer identically.
    reference = generic.settle()
    assert baseline.settle() == reference
    assert inlined.settle() == reference
    assert inlined.serve("schedule", 7) == baseline.serve("schedule", 7)

    # Deterministic cost model: one settled schedule(5) request.
    baseline_fuel = baseline.fuel_for(5)
    inlined_fuel = inlined.fuel_for(5)
    fuel_ratio = baseline_fuel / inlined_fuel

    # Wall clock on a larger request so the guest call chain dominates
    # the host dispatch overhead.
    batches, per_batch = (4, 3) if quick else (8, 4)
    base_wall, inl_wall = _best_latency([baseline, inlined], 50,
                                        batches, per_batch)
    wall_speedup = base_wall / inl_wall

    tstats = inlined.controller.stats
    opt = inlined.controller.compiler.total_stats.opt
    engine = inlined.engine_stats()
    planned_sites = [targets
                     for p in inlined.controller.compiler.processed
                     for _, targets in p.request.inline_plan]
    max_targets = max((len(t) for t in planned_sites), default=0)
    rows = [
        ["fuel / schedule(5) (staged tier 2)", baseline_fuel,
         "PR 7 pipeline, inline off"],
        ["fuel / schedule(5) (inlined)", inlined_fuel,
         f"{fuel_ratio:.2f}x less interpreter work"],
        ["steady-state (staged tier 2)", f"{base_wall * 1e6:.0f}us/req",
         "schedule(50) best-of"],
        ["steady-state (inlined)", f"{inl_wall * 1e6:.0f}us/req",
         f"{wall_speedup:.2f}x faster"],
        ["inline sites planned", tstats.inline_sites_planned,
         f"rejected={tstats.inline_candidates_rejected}, widest "
         f"guard chain {max_targets} targets"],
        ["splices committed", opt.inline_committed,
         f"attempted={opt.inline_attempted} "
         f"rejected_size={opt.inline_rejected_size}"],
        ["guards in residuals",
         "{entry} entry / {site} site / {resuming} resuming".format(
             **guard_kind_counts(inlined.rt.module.functions.values())),
         "site guards protect the spliced bodies"],
        ["guard misses / site demotions",
         f"{tstats.site_misses} / {tstats.site_demotions}",
         "steady chain stays speculated"],
        ["engine inline-plan requests", engine.inline_requests,
         f"of {engine.requests} total"],
    ]
    report = ("Speculative inlining — hot call-chain service "
              "(3 monomorphic + 1 polymorphic site)\n" +
              format_table(["metric", "value", "detail"], rows) +
              "\n\n" + inlined.controller.report())
    write_result("inlining", report)

    # --- regression guards -------------------------------------------
    assert fuel_ratio >= 1.2, (
        f"inlined fuel only {fuel_ratio:.2f}x better than staged tier 2 "
        f"({baseline_fuel} vs {inlined_fuel}, need >= 1.2x)")
    assert wall_speedup >= 1.05, (
        f"inlined steady-state only {wall_speedup:.2f}x faster "
        f"({base_wall * 1e6:.0f}us vs {inl_wall * 1e6:.0f}us)")
    assert tstats.inline_sites_planned >= 4  # all four schedule sites
    assert max_targets >= 2  # the f(i) site carries a polymorphic chain
    assert opt.inline_committed >= 4
    assert tstats.site_misses == 0 and tstats.site_demotions == 0
    assert engine.inline_requests > 0


def test_inlining_warm_store(benchmark, request, tmp_path):
    """Replaying the inlined service against a populated artifact store
    must load every residual — inline plans included — from disk: zero
    fresh specializations on the warm path."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    store = str(tmp_path / "store")

    cold = Service(CALLCHAIN_SERVICE, cache_dir=store, **STAGED, **INLINE)
    reference = cold.settle()
    cold_engine = cold.engine_stats()
    assert cold_engine.functions_specialized > 0
    assert cold_engine.artifacts_written > 0

    warm = Service(CALLCHAIN_SERVICE, cache_dir=store, **STAGED, **INLINE)
    assert warm.settle() == reference
    warm_engine = warm.engine_stats()
    rows = [
        ["cold specializations", cold_engine.functions_specialized,
         f"{cold_engine.artifacts_written} artifacts written"],
        ["warm specializations", warm_engine.functions_specialized,
         f"{warm_engine.artifact_hits} artifact hits"],
        ["warm inline-plan requests", warm_engine.inline_requests,
         "served from the store"],
        ["warm sites planned",
         warm.controller.stats.inline_sites_planned,
         f"misses={warm.controller.stats.site_misses}"],
    ]
    report = ("Speculative inlining — warm artifact store replay\n" +
              format_table(["metric", "value", "detail"], rows))
    write_result("inlining_warm_store", report)

    assert warm_engine.functions_specialized == 0, (
        f"warm store replay specialized "
        f"{warm_engine.functions_specialized} functions fresh")
    assert warm_engine.artifact_hits > 0
    assert warm_engine.inline_requests > 0
    assert warm.controller.stats.inline_sites_planned >= 4
    assert warm.controller.stats.site_misses == 0
