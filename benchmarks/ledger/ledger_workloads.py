"""The six ledger workloads: inputs, one repetition each, references.

Everything here runs in a *child* process started by ``run.py`` (or
in-process under ``--smoke``).  A repetition is one fresh start of the
system followed by a steady window; it returns the repetition's value
for every end-to-end metric, the operations it attempted and failed,
and — under ``--trace`` — the per-layer numbers.

Imports are limited to the layers under measurement.  ``repro.bench``,
``repro.jsvm.workloads`` and ``benchmarks/bench_*.py`` are never
imported: the inputs are the frozen files under ``programs/``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import marshal
import math
import os
import random
import resource
import statistics
import time
from typing import Dict, List, Optional, Tuple

from repro.backend import BackendError, emit_function_source
from repro.core.specialize import SpecializeOptions
from repro.core.stats import EngineStats, SpecializationStats, TieringStats
from repro.jsvm import JSRuntime
from repro.jsvm.runtime import SPEC_FIELD_WORD
from repro.jsvm.values import VALUE_UNDEFINED, box_double, unbox_double
from repro.luavm import LuaRuntime
from repro.min.fleet import make_endpoints, make_fleet_worker, serve
from repro.min.harness import PyMinInterpreter
from repro.min.isa import assemble
from repro.pipeline.profiles import ProfileStore

from ledger_speed import NOMINAL_S, reading, scale

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
PROGRAMS_DIR = os.path.join(LEDGER_DIR, "programs")
EXPECTED_PATH = os.path.join(LEDGER_DIR, "expected.json")

# Staged tiering + inlining configuration of the boundary-dominated
# services (the only non-default tiering knobs in the ledger).
CALLS_TIERING = dict(threshold=2, compile_threshold=3, inline=True,
                     inline_min_site_calls=2)
CALLS_STEADY_ARG = {"deepchain": 200, "dispatch": 50}
TIERED_MIX = (("schedule", 5, 0.6), ("hotPoly", 40, 0.2),
              ("hotObj", 40, 0.2))

# Per-repetition sizes.  "smoke" exists only to exercise every code
# path in seconds; its numbers mean nothing.  ``cold_runs`` are the
# steady runs of each program after its first in aot_cold / store_warm;
# ``exec_sweeps`` is the fewest sweeps of aot_exec, which keeps
# sweeping until its time is up.
SIZES = {
    False: dict(programs=None, cold_runs=2, exec_sweeps=8,
                tiered_warm=150, tiered_steady=600, batch=100,
                calls_settle=40, calls_batches=3, calls_batch=50,
                fleet_endpoints=None, fleet_divisor=1, fleet_batch=1000),
    True: dict(programs=("js/crypto", "lua/sumloop"), cold_runs=1,
               exec_sweeps=2, tiered_warm=40, tiered_steady=30, batch=10,
               calls_settle=10, calls_batches=1, calls_batch=4,
               fleet_endpoints=("e00", "e01", "e02", "e03", "e36", "e37"),
               fleet_divisor=100, fleet_batch=100),
}


class LedgerError(Exception):
    """The benchmark's own inputs are unusable (bad hash, missing
    reference): nothing was measured."""


# ---------------------------------------------------------------------------
# Frozen inputs and references.
# ---------------------------------------------------------------------------

def load_sources() -> Dict[str, str]:
    """Every frozen input, keyed ``js/richards``, ``services/tiered`` ...
    after checking each file against ``MANIFEST.json``."""
    with open(os.path.join(PROGRAMS_DIR, "MANIFEST.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    sources = {}
    for rel, digest in manifest["sha256"].items():
        with open(os.path.join(PROGRAMS_DIR, rel), "rb") as handle:
            data = handle.read()
        if hashlib.sha256(data).hexdigest() != digest:
            raise LedgerError(f"programs/{rel} does not match MANIFEST.json")
        sources[os.path.splitext(rel)[0]] = data.decode("utf-8")
    return sources


def write_manifest() -> None:
    digests = {}
    for root, _, files in os.walk(PROGRAMS_DIR):
        for name in files:
            if name == "MANIFEST.json":
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, PROGRAMS_DIR)] = \
                    hashlib.sha256(handle.read()).hexdigest()
    with open(os.path.join(PROGRAMS_DIR, "MANIFEST.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"sha256": dict(sorted(digests.items()))}, handle,
                  indent=1)
        handle.write("\n")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def fleet_endpoints(sources: Dict[str, str], smoke: bool):
    """``(endpoints, spec rows, threshold)`` from the frozen generator:
    assembly templates with an ``N`` hole, one row per endpoint."""
    doc = json.loads(sources["services/fleet"])
    rows = doc["endpoints"]
    keep = SIZES[smoke]["fleet_endpoints"]
    if keep is not None:
        rows = [row for row in rows if row["name"] in keep]
    programs = []
    for row in rows:
        lines = [tuple(row["n"] if operand == "N" else operand
                       for operand in line)
                 for line in doc["kinds"][row["kind"]]]
        programs.append((row["name"], assemble(lines)))
    return make_endpoints(programs), rows, doc["threshold"]


def request_key(name: str, arg) -> str:
    return f"{name}:{arg}"


def prepare(workload: str, seed: int, smoke: bool) -> dict:
    """The benchmark's set-up: load and hash-check the frozen inputs,
    derive this run's request streams from ``seed``, and check that the
    committed references cover every operation that will be attempted.

    The seed permutes *order* only (program order, request order); the
    multiset of operations is fixed, so the deterministic metrics
    repeat exactly across seeds.
    """
    if workload not in REPS:
        raise LedgerError(f"unknown workload {workload!r}")
    sizes = SIZES[smoke]
    sources = load_sources()
    expected = load_expected()
    rng = random.Random(f"{workload}/{seed}")
    plan = {"workload": workload, "sources": sources, "expected": expected}
    if workload in ("aot_cold", "aot_exec", "store_warm"):
        keys = [key for key in sorted(sources)
                if key.startswith(("js/", "lua/"))]
        if sizes["programs"] is not None:
            keys = [key for key in keys if key in sizes["programs"]]
        rng.shuffle(keys)
        missing = [key for key in keys if key not in expected["programs"]]
        plan["programs"] = keys
    elif workload == "serve_tiered":
        def mix(total):
            stream = []
            for name, arg, share in TIERED_MIX:
                stream += [(name, arg)] * round(total * share)
            rng.shuffle(stream)
            return stream
        plan["warm"] = mix(sizes["tiered_warm"])
        plan["steady"] = mix(sizes["tiered_steady"])
        wanted = {request_key(*r) for r in plan["warm"] + plan["steady"]}
        wanted.add(request_key("startup", 1))
        missing = sorted(
            wanted - set(expected["services"]["tiered"]))
    elif workload == "serve_calls":
        # Nothing here is seeded: two fixed services, fixed requests.
        plan["services"] = sorted(CALLS_STEADY_ARG)
        missing = [f"{svc}/{key}" for svc in plan["services"]
                   for key in (request_key("schedule", 1),
                               request_key("schedule",
                                           CALLS_STEADY_ARG[svc]))
                   if key not in expected["services"][svc]]
    else:
        _, rows, _ = fleet_endpoints(sources, smoke)
        divisor = sizes["fleet_divisor"]
        setup, steady = [], []
        for index, row in enumerate(rows):
            setup += [index] * row["setup_requests"]
            steady += [index] * max(1, row["steady_requests"] // divisor)
        rng.shuffle(setup)
        rng.shuffle(steady)
        plan["setup_stream"], plan["steady_stream"] = setup, steady
        missing = [row["name"] for row in rows
                   if row["name"] not in expected["fleet"]]
    if missing:
        raise LedgerError(f"expected.json lacks references for {missing}; "
                          f"run --regen-expected")
    return plan


# ---------------------------------------------------------------------------
# Bookkeeping shared by every repetition.
# ---------------------------------------------------------------------------

class Checks:
    """Operations attempted / failed (a wrong result, an exception, or
    a broken workload assertion all count as one failed operation)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 8:
                self.messages.append(message)


def geomean(values) -> float:
    # fsum: the same value whatever order the seed puts the units in.
    logs = [math.log(value) for value in values]
    return math.exp(math.fsum(logs) / len(logs))


def tree_bytes(root: Optional[str]) -> Tuple[int, int]:
    """``(bytes, files)`` under ``root``."""
    total = files = 0
    if root:
        for base, _, names in os.walk(root):
            for name in names:
                total += os.path.getsize(os.path.join(base, name))
                files += 1
    return total, files


@dataclasses.dataclass
class Unit:
    """One program or service inside a repetition.  Times are at
    reference speed (see ``ledger_speed``)."""

    name: str
    ttfr_ms: float = 0.0
    compile_ms: float = 0.0
    warmup_ms: float = 0.0
    latencies: List[float] = dataclasses.field(default_factory=list)
    steady_fuel: int = 0
    steady_calls: int = 0
    steady_loads: int = 0
    steady_stores: int = 0
    interp_fuel: int = 0

    def add_exec(self, stats) -> None:
        """Fold one steady-window :class:`ExecStats` (delta) in."""
        self.steady_fuel += stats.fuel
        self.steady_calls += stats.calls + stats.indirect_calls
        self.steady_loads += stats.loads
        self.steady_stores += stats.stores


class Tally:
    """What a repetition's runtimes installed and counted, summed over
    its units from their public stats objects.  Filled outside the
    timed regions, so a runtime can be dropped once it was measured."""

    def __init__(self, want_sizes: bool, want_code: bool) -> None:
        self.want_sizes = want_sizes    # re-emit to measure the source
        self.want_code = want_code      # ... and compile()+marshal it
        self.spec = SpecializationStats()
        self.engine = EngineStats()
        self.tiering = TieringStats()
        self.tiers = {0: 0, 1: 0, 2: 0}
        self.code_instrs = 0
        self.links = {"direct_made": 0, "ic_made": 0, "linked_slots": 0,
                      "epoch": 0}
        self.emitted = {"bytes": 0, "functions": 0, "structured": 0,
                        "dispatch_regions": 0, "marshal_bytes": 0}

    def absorb(self, compiler, vm, controller=None) -> None:
        module = compiler.module
        self.spec.merge(compiler.total_stats)
        self.engine.merge(compiler.engine.stats)
        self.code_instrs += sum(
            module.functions[item.function_name].num_instrs()
            for item in compiler.processed if item.error is None)
        if controller is not None:
            # AOT runtimes keep their controller private, so tiering
            # reads 0 there; the services and the fleet expose theirs.
            self.tiering.merge(controller.stats)
            for tier, count in controller.tier_counts().items():
                self.tiers[tier] = self.tiers.get(tier, 0) + count
        links = vm.links
        self.links["direct_made"] += links.links_made
        self.links["ic_made"] += links.ic_links_made
        self.links["linked_slots"] += links.linked_count()
        self.links["epoch"] += links.epoch
        if self.want_sizes:
            self._measure_emitted(compiler)

    def _measure_emitted(self, compiler) -> None:
        """Re-emit every function that reached tier 2 and measure the
        text (the engine does not keep emitted source; emission is
        deterministic, so this is the text it compiled)."""
        out = self.emitted
        module = compiler.module
        mode = compiler.options.emit_mode
        for name in compiler.backend_functions:
            try:
                source, used, emitter = emit_function_source(
                    module.functions[name], module, mode=mode)
            except BackendError:
                continue
            out["bytes"] += len(source.encode("utf-8"))
            out["functions"] += 1
            out["structured"] += used == "structured"
            out["dispatch_regions"] += getattr(emitter,
                                               "dispatch_regions", 0)
            if self.want_code:
                out["marshal_bytes"] += len(marshal.dumps(
                    compile(source, f"<pybackend:{name}>", "exec")))


@dataclasses.dataclass
class Rep:
    """One repetition's inputs and collectors."""

    plan: dict
    spec: dict
    checks: Checks
    tally: Tally
    rec: object = None                      # span recorder when traced
    speeds: List[float] = dataclasses.field(default_factory=list)

    @property
    def sizes(self) -> dict:
        return SIZES[self.spec["smoke"]]

    def speed(self) -> float:
        """Take (and keep) one machine-speed reading."""
        self.speeds.append(reading())
        return self.speeds[-1]

    def request(self, label: str) -> None:
        """Name the request the following spans belong to."""
        if self.rec is not None:
            self.rec.request = label


def batch_median_us(latencies: List[float], batch: int) -> float:
    """Median of batch medians, in microseconds."""
    medians = [statistics.median(latencies[i:i + batch])
               for i in range(0, len(latencies), batch)]
    return statistics.median(medians) * 1e6


def _options(cache_dir: Optional[str] = None) -> SpecializeOptions:
    # Defaults everywhere except the backend (and the store, where the
    # workload has one), so a changed default shows up in the ledger.
    return SpecializeOptions(backend="py", cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# Program suites (aot_cold, aot_exec, store_warm).
# ---------------------------------------------------------------------------

class SuiteProgram:
    """One frozen guest program, AOT-compiled from a fresh runtime."""

    def __init__(self, key: str, source: str, cache_dir: Optional[str]):
        self.key = key
        self.is_js = key.startswith("js/")
        self.start = time.perf_counter()
        if self.is_js:
            self.rt = JSRuntime(source, "wevaled_state",
                                options=_options(cache_dir))
        else:
            self.rt = LuaRuntime(source, options=_options(cache_dir))
        compile_start = time.perf_counter()
        self.compiler = self.rt.aot_compile()
        self.compiler.compile_backend()
        self.compile_s = time.perf_counter() - compile_start

    def run(self):
        """Run main once; returns ``(vm, printed lines as strings)``."""
        del self.rt.printed[:]
        vm = self.rt.run() if self.is_js else self.rt.run_aot()
        return vm, [str(item) for item in self.rt.printed]


def rep_suite(rep: Rep) -> dict:
    """Fresh start of every program — cold over an empty store
    (aot_cold), over the pre-filled store (store_warm), or store-less
    (aot_exec) — then steady runs of its main.

    aot_cold and store_warm measure a few steady runs right after the
    first and drop the runtime, so every program starts from the same
    heap whatever the seed's order; aot_exec keeps all programs alive
    and sweeps over them until ``spec["seconds"]`` are used up.
    """
    plan, spec, checks = rep.plan, rep.spec, rep.checks
    workload = plan["workload"]
    sweeping = workload == "aot_exec"
    root = None if sweeping else spec.get("cache_dir")
    expected = plan["expected"]["programs"]

    def steady_run(program: SuiteProgram, unit: Unit) -> float:
        rep.request(program.key)
        begin = time.perf_counter()
        vm, printed = program.run()
        took = time.perf_counter() - begin
        unit.add_exec(vm.stats)
        unit.interp_fuel += expected[program.key]["interp_fuel"]
        checks.check(printed == expected[program.key]["prints"],
                     f"{program.key}: printed {printed}")
        return took

    programs, units = [], []
    steady_wall = 0.0
    program = vm = None
    for key in plan["programs"]:
        rep.request(key)
        # aot_cold / store_warm: one store per program, so no program
        # is warmed by artifacts another one wrote.
        cache_dir = os.path.join(root, key.replace("/", "_")) if root \
            else None
        gc.collect()
        before = rep.speed()
        program = SuiteProgram(key, plan["sources"][key], cache_dir)
        vm, printed = program.run()
        ttfr = time.perf_counter() - program.start
        fresh = scale(before, rep.speed())
        checks.check(printed == expected[key]["prints"],
                     f"{key}: first run printed {printed}")
        unit = Unit(key, ttfr_ms=ttfr * fresh * 1e3,
                    warmup_ms=ttfr * fresh * 1e3,
                    compile_ms=program.compile_s * fresh * 1e3)
        units.append(unit)
        if sweeping:
            programs.append(program)
        else:
            for _ in range(rep.sizes["cold_runs"]):
                gc.collect()
                before = rep.speeds[-1]     # closed the previous window
                took = steady_run(program, unit)
                took *= scale(before, rep.speed())
                unit.latencies.append(took)
                steady_wall += took
        rep.tally.absorb(program.compiler, vm)
        program = vm = None
    if sweeping:
        # The compiled suite is this workload's set-up and stays alive:
        # keep it out of the collector's way, so the collection before
        # each sweep only looks at the previous sweep's garbage.
        gc.collect()
        gc.freeze()
        try:
            sweeps = 0
            deadline = time.perf_counter() + spec.get("seconds", 0.0)
            while sweeps < rep.sizes["exec_sweeps"] or \
                    time.perf_counter() < deadline:
                gc.collect()
                before = rep.speed()
                took = [steady_run(program, unit)
                        for program, unit in zip(programs, units)]
                steady = scale(before, rep.speed())
                for unit, seconds in zip(units, took):
                    unit.latencies.append(seconds * steady)
                steady_wall += sum(took) * steady
                sweeps += 1
        finally:
            gc.unfreeze()
    if workload == "store_warm":
        engine = rep.tally.engine
        checks.check(engine.functions_specialized == 0,
                     f"store_warm specialized "
                     f"{engine.functions_specialized} functions")
        # Every function comes back as a code object, except those the
        # emitter cannot express at all (they stay on the IR VM).
        loaded = engine.backend_code_hits + engine.backend_fallbacks
        checks.check(loaded == engine.requests,
                     f"store_warm: {loaded} code objects or fallbacks "
                     f"loaded for {engine.requests} requests")
    return {"units": units, "steady_wall_s": steady_wall, "batch": 1,
            "cache_dir": root}


# ---------------------------------------------------------------------------
# MiniJS services (serve_tiered, serve_calls).
# ---------------------------------------------------------------------------

class JSService:
    """A MiniJS runtime served host-side: the embedder dispatches each
    request into a guest handler through the function's ``spec`` slot
    (specialized code when present, the generic interpreter otherwise),
    the same shape the guest-level CALL opcode uses."""

    def __init__(self, source: str, **tiering):
        self.start = time.perf_counter()
        self.rt = JSRuntime(source, "wevaled_state", options=_options())
        self.structs = {f.name: self.rt.func_addrs[f.index]
                        for f in self.rt.compiled.functions}
        self.vm = self.rt.run(mode="tiered", **tiering)
        self.controller = self.rt.controller

    def serve(self, name: str, arg) -> float:
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

    def tier_state(self) -> tuple:
        """Changes whenever a promotion, tier-2 install or inline
        respecialization lands."""
        stats = self.controller.stats
        return (stats.promotions, stats.tier2_installs,
                stats.inline_sites_planned,
                len(self.controller.compiler.processed))


def _fresh_service(rep: Rep, label: str, source: str, requests,
                   expected: dict, **tiering):
    """Start a service and serve ``requests`` from the fresh start.
    Returns the service, its unit with ttfr, warm-up and compile time
    filled in, and the warm-up latencies.

    Warm-up ends with the last request that changed the tier state; it
    is the start-up plus the latencies up to that request, so the
    benchmark's own checks between requests are not part of it."""
    checks = rep.checks
    gc.collect()
    readings = [rep.speed()]
    service = JSService(source, **tiering)
    unit = Unit(label)
    latencies = []
    state = service.tier_state()
    settled = startup = 0.0
    for index, (name, arg) in enumerate(requests):
        begin = time.perf_counter()
        result = service.serve(name, arg)
        end = time.perf_counter()
        latencies.append(end - begin)
        checks.check(
            result == expected[request_key(name, arg)]["response"],
            f"{label} {name}({arg}) -> {result}")
        if index == 0:
            startup = settled = end - service.start
            readings.append(rep.speed())
            unit.ttfr_ms = startup * scale(*readings) * 1e3
        if service.tier_state() != state:
            state = service.tier_state()
            settled = startup + sum(latencies[1:])
    readings.append(rep.speed())
    warm = scale(*readings)
    unit.warmup_ms = settled * warm * 1e3
    unit.compile_ms = service.controller.stats.promote_seconds * warm * 1e3
    return service, unit, [seconds * warm for seconds in latencies]


def _steady_batch(rep: Rep, service: JSService, unit: Unit, requests,
                  expected: dict) -> float:
    """Serve one batch in the steady window; returns its wall time."""
    checks = rep.checks
    latencies = []
    stats = service.vm.stats.snapshot()
    before = rep.speed()
    window = time.perf_counter()
    for name, arg in requests:
        reference = expected[request_key(name, arg)]
        begin = time.perf_counter()
        result = service.serve(name, arg)
        latencies.append(time.perf_counter() - begin)
        unit.interp_fuel += reference["interp_fuel"]
        checks.check(result == reference["response"],
                     f"{unit.name} {name}({arg}) -> {result}")
    wall = time.perf_counter() - window
    steady = scale(before, rep.speed())
    unit.latencies += [seconds * steady for seconds in latencies]
    unit.add_exec(service.vm.stats.delta(stats))
    return wall * steady


def rep_serve_tiered(rep: Rep) -> dict:
    plan, checks, batch = rep.plan, rep.checks, rep.sizes["batch"]
    expected = plan["expected"]["services"]["tiered"]
    service, unit, warm = _fresh_service(
        rep, "tiered", plan["sources"]["services/tiered"],
        [("startup", 1)] + plan["warm"], expected)
    state = service.tier_state()
    gc.collect()
    steady = plan["steady"]
    wall = sum(_steady_batch(rep, service, unit, steady[i:i + batch],
                             expected)
               for i in range(0, len(steady), batch))
    checks.check(service.tier_state() == state,
                 "serve_tiered: tier state changed in the steady window")
    tier0 = service.controller.tier_counts().get(0, 0)
    checks.check(tier0 >= 12, f"serve_tiered: only {tier0} functions "
                              f"left at tier 0 (cold endpoints promoted)")
    rep.tally.absorb(service.controller.compiler, service.vm,
                     service.controller)
    return {"units": [unit], "steady_wall_s": wall, "batch": batch,
            "warm_latencies": warm}


def rep_serve_calls(rep: Rep) -> dict:
    plan, checks, sizes = rep.plan, rep.checks, rep.sizes
    services, units, warm = [], [], []
    for name in plan["services"]:
        service, unit, latencies = _fresh_service(
            rep, name, plan["sources"][f"services/{name}"],
            [("schedule", 1)] * sizes["calls_settle"],
            plan["expected"]["services"][name], **CALLS_TIERING)
        services.append(service)
        units.append(unit)
        warm += latencies
    states = [service.tier_state() for service in services]
    gc.collect()
    wall = 0.0
    for _ in range(sizes["calls_batches"]):
        for service, unit in zip(services, units):
            batch = [("schedule", CALLS_STEADY_ARG[unit.name])] \
                * sizes["calls_batch"]
            wall += _steady_batch(rep, service, unit, batch,
                                  plan["expected"]["services"][unit.name])
    checks.check([s.tier_state() for s in services] == states,
                 "serve_calls: tier state changed in the steady window")
    for service in services:
        rep.tally.absorb(service.controller.compiler, service.vm,
                         service.controller)
    checks.check(rep.tally.links["ic_made"] >= 1,
                 "serve_calls: no inline-cache link made")
    planned = rep.tally.tiering.inline_sites_planned
    checks.check(planned >= 4,
                 f"serve_calls: only {planned} inline sites planned")
    return {"units": units, "steady_wall_s": wall,
            "batch": sizes["calls_batch"], "warm_latencies": warm}


# ---------------------------------------------------------------------------
# Min fleet (fleet_adopt).
# ---------------------------------------------------------------------------

def setup_fleet(plan: dict, spec: dict, checks: Checks) -> None:
    """Set-up: a cold worker discovers the hot set over an empty store
    and publishes its heat."""
    endpoints, rows, threshold = fleet_endpoints(plan["sources"],
                                                 spec["smoke"])
    expected = plan["expected"]["fleet"]
    vm, controller = make_fleet_worker(
        endpoints, threshold=threshold,
        options=_options(spec["cache_dir"]))
    for index in plan["setup_stream"]:
        result = serve(vm, endpoints[index])
        checks.check(result == expected[rows[index]["name"]]["response"],
                     f"fleet set-up {rows[index]['name']} -> {result}")
    checks.check(controller.publish_heat(ProfileStore(spec["cache_dir"])),
                 "fleet set-up: publish_heat failed")


def rep_fleet_adopt(rep: Rep) -> dict:
    plan, spec, checks = rep.plan, rep.spec, rep.checks
    batch = rep.sizes["fleet_batch"]
    endpoints, rows, threshold = fleet_endpoints(plan["sources"],
                                                 spec["smoke"])
    expected = [plan["expected"]["fleet"][row["name"]] for row in rows]
    responses = [reference["response"] for reference in expected]
    stream = plan["steady_stream"]
    gc.collect()
    before = rep.speed()
    start = time.perf_counter()
    vm, controller = make_fleet_worker(
        endpoints, threshold=threshold,
        options=_options(spec["cache_dir"]))
    store = ProfileStore(spec["cache_dir"])
    adopt_start = time.perf_counter()
    adopted = controller.adopt_heat(store)
    adopt_s = time.perf_counter() - adopt_start
    first = serve(vm, endpoints[stream[0]])
    ttfr = time.perf_counter() - start
    fresh = scale(before, rep.speed())
    checks.check(first == responses[stream[0]],
                 f"fleet first request -> {first}")
    unit = Unit("fleet", ttfr_ms=ttfr * fresh * 1e3,
                warmup_ms=ttfr * fresh * 1e3,
                compile_ms=adopt_s * fresh * 1e3)
    promotions = controller.stats.promotions
    clock = time.perf_counter
    wrong = []
    wall = 0.0
    gc.collect()
    stats = vm.stats.snapshot()
    for offset in range(0, len(stream), batch):
        latencies = []
        before = rep.speed()
        window = clock()
        for index in stream[offset:offset + batch]:
            endpoint = endpoints[index]
            begin = clock()
            result = serve(vm, endpoint)
            latencies.append(clock() - begin)
            if result != responses[index]:
                wrong.append((index, result))
        took = clock() - window
        steady = scale(before, rep.speed())
        wall += took * steady
        unit.latencies += [seconds * steady for seconds in latencies]
    unit.add_exec(vm.stats.delta(stats))
    unit.interp_fuel = sum(expected[index]["interp_fuel"]
                           for index in stream)
    checks.attempted += len(stream) - len(wrong)
    for index, result in wrong:
        checks.check(False, f"fleet {rows[index]['name']} -> {result}")
    rep.tally.absorb(controller.compiler, vm, controller)
    specialized = rep.tally.engine.functions_specialized
    checks.check(specialized == 0,
                 f"fleet_adopt compiled {specialized} functions")
    checks.check(controller.stats.promotions == promotions
                 and bool(adopted),
                 "fleet_adopt: promotions outside adopt_heat")
    tier0 = controller.tier_counts().get(0, 0)
    checks.check(tier0 * 4 >= len(endpoints),
                 f"fleet_adopt: only {tier0} endpoints left at tier 0")
    return {"units": [unit], "steady_wall_s": wall, "batch": batch,
            "cache_dir": spec["cache_dir"]}


REPS = {"aot_cold": rep_suite, "aot_exec": rep_suite,
        "store_warm": rep_suite, "serve_tiered": rep_serve_tiered,
        "serve_calls": rep_serve_calls, "fleet_adopt": rep_fleet_adopt}


# ---------------------------------------------------------------------------
# From a finished repetition to metric values.
# ---------------------------------------------------------------------------

def unit_rows(outcome: dict) -> dict:
    """Per-program / per-service rows: the ledger reports each in its
    own row, and the workload's metrics aggregate them."""
    return {unit.name: {
        "ttfr_ms": unit.ttfr_ms, "compile_ms": unit.compile_ms,
        "warmup_ms": unit.warmup_ms,
        "steady_us": batch_median_us(unit.latencies, outcome["batch"]),
        "fuel_per_req": unit.steady_fuel / len(unit.latencies),
        "fuel_speedup": unit.interp_fuel / unit.steady_fuel,
    } for unit in outcome["units"]}


def end_to_end(outcome: dict, rows: dict, tally: Tally) -> dict:
    """This repetition's value for every end-to-end metric."""
    units = outcome["units"]
    requests = sum(len(unit.latencies) for unit in units)

    def column(name):
        return [row[name] for row in rows.values()]

    metrics = {
        "ttfr_ms": geomean(column("ttfr_ms")),
        "compile_ms": sum(column("compile_ms")),
        "warmup_ms": geomean(column("warmup_ms")),
        "steady_us": geomean(column("steady_us")),
        "steady_rps": requests / outcome["steady_wall_s"],
        "fuel_per_req": sum(unit.steady_fuel for unit in units) / requests,
        "fuel_speedup": geomean(column("fuel_speedup")),
        "code_instrs": tally.code_instrs,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if outcome.get("cache_dir"):
        metrics["store_bytes"] = tree_bytes(outcome["cache_dir"])[0]
    if tally.want_sizes:
        metrics["emitted_bytes"] = tally.emitted["bytes"]
    return metrics


# ---------------------------------------------------------------------------
# Per-layer metrics (the --trace run).
# ---------------------------------------------------------------------------

OPT_PASSES = ("fold", "copyprop", "gvn", "prune-params", "simplify-cfg",
              "load-forward", "dce", "inline")


def _percentile(ordered: List[float], fraction: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def machine_probes(sources: Dict[str, str], smoke: bool) -> dict:
    """What one unit of guest fuel costs on each execution engine
    (richards main; tier 0 = generic interpreter, tier 1 = residual IR
    on the VM, tier 2 = compiled Python) and what one settled call
    boundary costs (the deep chain's terminal callee)."""
    source = sources["js/crypto" if smoke else "js/richards"]
    out = {}

    def timed_run(runtime):
        runtime.run()                      # settle ICs / link slots
        rounds = []
        for _ in range(3):
            gc.collect()
            before = reading()
            begin = time.perf_counter()
            vm = runtime.run()
            took = time.perf_counter() - begin
            rounds.append(took * scale(before, reading()) / vm.stats.fuel)
        return statistics.median(rounds) * 1e9

    out["vm.machine.interp_ns_per_fuel"] = timed_run(
        JSRuntime(source, "interp_ic"))
    for backend, label in (("vm", "residual"), ("py", "py")):
        runtime = JSRuntime(source, "wevaled_state",
                            options=SpecializeOptions(backend=backend))
        runtime.aot_compile()
        out[f"vm.machine.{label}_ns_per_fuel"] = timed_run(runtime)

    chain = JSService(sources["services/deepchain"], **CALLS_TIERING)
    for _ in range(SIZES[smoke]["calls_settle"]):
        chain.serve("schedule", 1)
    vm, rt = chain.vm, chain.rt
    struct = chain.structs["c7"]
    spec = vm.load_u64(struct + SPEC_FIELD_WORD * 8)
    vm.store_u64(rt.frame_base + 8, box_double(1.0))
    out["pipeline.links.boundary_ns"] = 0.0
    if spec:
        loops = 200 if smoke else 5000
        args = [struct, rt.frame_base]
        call_table = vm.call_table
        rounds = []
        for _ in range(5):
            before = reading()
            begin = time.perf_counter()
            for _ in range(loops):
                call_table(spec, args)
            took = time.perf_counter() - begin
            rounds.append(took * scale(before, reading()))
        out["pipeline.links.boundary_ns"] = \
            statistics.median(rounds) * 1e9 / loops
    return out


def layer_metrics(outcome: dict, rep: Rep, probes: dict) -> dict:
    """Every per-layer metric, from the recorder's spans and the
    public stats objects of the repetition's runtimes.  A layer that
    did no work on this workload reports 0 — that *is* the reading.
    Times are taken to reference speed with the repetition's median
    machine-speed reading."""
    units = outcome["units"]
    tally = rep.tally
    spans = rep.rec.summary()
    speed = machine_speed(rep)

    def total(name):
        return spans.get(name, {}).get("total_ms", 0.0) * speed

    def self_ms(name):
        return spans.get(name, {}).get("self_ms", 0.0) * speed

    def ms(seconds):
        return seconds * 1e3 * speed

    spec_stats, engine, emitted = tally.spec, tally.engine, tally.emitted
    opt = spec_stats.opt
    out = {
        "frontend.runtime_build_ms": total("frontend.compile_source"),
        "jsvm.frontend.compile_js_ms": total("jsvm.frontend.compile_js"),
        "luavm.compiler.compile_ms": total("luavm.compiler.compile_lua"),
        "core.specialize.ms": self_ms("core.specialize"),
        "core.specialize.block_visits": spec_stats.block_visits,
        "core.specialize.block_revisits": spec_stats.block_revisits,
        "core.specialize.meets_performed": spec_stats.meets_performed,
        "core.specialize.meets_skipped": spec_stats.meets_skipped,
        "core.specialize.contexts_created": spec_stats.contexts_created,
        "core.specialize.intern_hit_rate": spec_stats.intern_hit_rate(),
        "core.specialize.output_instrs": spec_stats.output_instrs,
        "opt.ms": total("opt.optimize_function"),
        "opt.rounds": opt.rounds,
        "opt.pass_skips": opt.passes_skipped,
        "opt.workcheck_ms": ms(opt.workcheck_seconds),
        "opt.instrs_before": opt.instrs_before,
        "opt.instrs_after": opt.instrs_after,
        "ir.verifier.ms": total("ir.verifier"),
        "ir.printer.ms": total("ir.printer"),
        "backend.emit.ms": total("backend.emit"),
        "backend.emit.bytes": emitted["bytes"],
        "backend.emit.structured_share":
            emitted["structured"] / max(1, emitted["functions"]),
        "backend.emit.dispatch_regions": emitted["dispatch_regions"],
        "backend.emit.fallbacks": engine.backend_fallbacks,
        "backend.pycompile.ms": total("backend.pycompile"),
        "backend.marshal.bytes": emitted["marshal_bytes"],
        "pipeline.engine.batch_ms": total("pipeline.engine.batch"),
        "pipeline.engine.unattributed_ms":
            self_ms("pipeline.engine.batch"),
        "pipeline.engine.functions_specialized":
            engine.functions_specialized,
        "pipeline.engine.cache_hits": engine.cache_hits,
        "pipeline.engine.artifact_hits": engine.artifact_hits,
        "pipeline.engine.backend_code_hits": engine.backend_code_hits,
        "pipeline.engine.requests_failed": engine.requests_failed,
        "pipeline.artifacts.write_residual_ms":
            total("pipeline.artifacts.write_residual"),
        "pipeline.artifacts.write_py_ms":
            total("pipeline.artifacts.write_py"),
        "pipeline.artifacts.read_residual_ms":
            total("pipeline.artifacts.read_residual"),
        "pipeline.artifacts.read_py_ms":
            total("pipeline.artifacts.read_py"),
        "pipeline.artifacts.request_key_ms":
            total("core.cache.request_key"),
        "pipeline.artifacts.invalid": engine.artifact_invalid,
        "pipeline.artifacts.write_failures": engine.store_write_failures,
        "pipeline.profiles.publish_ms": total("pipeline.profiles.publish"),
        "pipeline.profiles.adopt_ms": total("pipeline.profiles.adopt"),
        "vm.machine.resume_ms": total("vm.machine.resume"),
        "trace.hooks_missing": rep.rec.hooks_missing,
        "trace.machine_speed": speed,
    }
    for name in OPT_PASSES:
        stats = opt.per_pass.get(name)
        out[f"opt.{name}.ms"] = ms(stats.seconds) if stats else 0.0
        out[f"opt.{name}.runs"] = stats.runs if stats else 0

    store_bytes, store_files = tree_bytes(outcome.get("cache_dir"))
    out["pipeline.artifacts.store_bytes"] = store_bytes
    out["pipeline.artifacts.files"] = store_files
    heat = os.path.join(outcome.get("cache_dir") or "", "profiles",
                        "heat.json")
    out["pipeline.profiles.heat_bytes"] = \
        os.path.getsize(heat) if os.path.exists(heat) else 0

    for field in ("promotions", "tier2_installs", "tier0_calls", "deopts",
                  "inline_sites_planned"):
        out[f"pipeline.tiering.{field}"] = getattr(tally.tiering, field)
    out["pipeline.tiering.promote_ms"] = ms(tally.tiering.promote_seconds)
    # Warm-up latencies are at reference speed already.
    warm = outcome.get("warm_latencies") or [0.0]
    out["pipeline.tiering.max_stall_ms"] = max(warm) * 1e3
    for tier in (0, 1, 2):
        out[f"pipeline.tiering.tier{tier}_functions"] = tally.tiers[tier]
    for field, value in tally.links.items():
        out[f"pipeline.links.{field}"] = value

    requests = sum(len(unit.latencies) for unit in units)
    for field in ("calls", "loads", "stores"):
        out[f"vm.machine.{field}_per_req"] = sum(
            getattr(unit, f"steady_{field}") for unit in units) / requests
    ordered = sorted(lat for unit in units for lat in unit.latencies)
    out["service.p50_us"] = _percentile(ordered, 0.50) * 1e6
    out["service.p99_us"] = _percentile(ordered, 0.99) * 1e6
    out["service.samples"] = len(ordered)
    out.update(probes)
    return out


# ---------------------------------------------------------------------------
# One child invocation.
# ---------------------------------------------------------------------------

def machine_speed(rep: Rep) -> float:
    """How fast the machine ran during this repetition, as a share of
    reference speed (1.0: the kernel took ``NOMINAL_S``)."""
    return NOMINAL_S / statistics.median(rep.speeds)


def run_child(spec: dict) -> dict:
    """Run one phase (``setup`` or ``rep``) described by ``spec``."""
    checks = Checks()
    if spec["phase"] == "setup":
        rep = Rep({}, spec, checks, Tally(False, False))
        rep.speed()
        begin = time.perf_counter()
        plan = prepare(spec["workload"], spec["seed"], spec["smoke"])
        if spec["workload"] == "fleet_adopt":
            setup_fleet(plan, spec, checks)
        elif spec["workload"] == "store_warm":
            # Fill the store with a cold pass.
            rep.plan = dict(plan, workload="aot_cold")
            rep_suite(rep)
        raw = time.perf_counter() - begin
        rep.speed()
        return {"attempted": checks.attempted, "failed": checks.failed,
                "messages": checks.messages, "raw_s": raw,
                "wall_s": raw * machine_speed(rep)}

    plan = prepare(spec["workload"], spec["seed"], spec["smoke"])

    rec = None
    if spec.get("trace"):
        from ledger_spans import Recorder
        rec = Recorder()
        rec.install()
    rep = Rep(plan, spec, checks,
              Tally(want_sizes=spec.get("sizes", False) or rec is not None,
                    want_code=rec is not None), rec)
    begin = time.perf_counter()
    try:
        with (rec.span("ledger.rep") if rec else contextlib.nullcontext()):
            outcome = REPS[spec["workload"]](rep)
    finally:
        if rec is not None:
            rec.uninstall()
    speed = machine_speed(rep)
    rows = unit_rows(outcome)
    result = {
        "attempted": checks.attempted, "failed": checks.failed,
        "messages": checks.messages,
        "wall_s": (time.perf_counter() - begin) * speed,
        "machine_speed": speed,
        "metrics": end_to_end(outcome, rows, rep.tally),
        "units": rows,
    }
    if spec["workload"] == "aot_exec":
        # Compiling the suite is this workload's set-up.
        result["setup_s"] = sum(unit.ttfr_ms
                                for unit in outcome["units"]) / 1e3
    if rec is not None:
        result["layers"] = layer_metrics(
            outcome, rep, spec.get("probes")
            or machine_probes(plan["sources"], spec["smoke"]))
        if spec.get("trace_path"):
            rec.write_chrome_trace(spec["trace_path"])
    return result


# ---------------------------------------------------------------------------
# References from the non-compiling paths only (--regen-expected).
# ---------------------------------------------------------------------------

def regen_expected() -> dict:
    """Prints, responses and interpreter fuel from the paths that never
    specialize: ``JSRuntime(config="interp_ic")``,
    ``LuaRuntime.run_interpreted()``, :class:`PyMinInterpreter`, and the
    services at ``threshold=inf``."""
    sources = load_sources()
    programs = {}
    for key, source in sorted(sources.items()):
        if key.startswith("js/"):
            rt = JSRuntime(source, "interp_ic")
            vm = rt.run()
        elif key.startswith("lua/"):
            rt = LuaRuntime(source)
            vm = rt.run_interpreted()
        else:
            continue
        programs[key] = {"prints": [str(item) for item in rt.printed],
                         "interp_fuel": vm.stats.fuel}

    def service_refs(name, requests):
        service = JSService(sources[f"services/{name}"],
                            threshold=float("inf"))
        refs = {}
        for handler, arg in requests:
            for _ in range(3):      # settled: inline caches attached
                fuel = service.vm.stats.fuel
                response = service.serve(handler, arg)
            refs[request_key(handler, arg)] = {
                "response": response,
                "interp_fuel": service.vm.stats.fuel - fuel}
        return refs

    services = {
        "tiered": service_refs(
            "tiered", [("startup", 1)] + [(n, a) for n, a, _ in TIERED_MIX]),
    }
    for name, arg in CALLS_STEADY_ARG.items():
        services[name] = service_refs(name, [("schedule", 1),
                                             ("schedule", arg)])

    endpoints, rows, _ = fleet_endpoints(sources, smoke=False)
    vm, _ = make_fleet_worker(endpoints, threshold=float("inf"))
    fleet = {}
    for endpoint, row in zip(endpoints, rows):
        fuel = vm.stats.fuel
        served = serve(vm, endpoint)
        response = PyMinInterpreter(endpoint.program).run(0)
        if served != response:
            raise LedgerError(f"fleet {row['name']}: interpreters disagree")
        fleet[row["name"]] = {"response": response,
                              "interp_fuel": vm.stats.fuel - fuel}
    return {"programs": programs, "services": services, "fleet": fleet}
