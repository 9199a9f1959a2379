"""Fleet serving with persisted heat: warm-up, throughput, identity.

The production question this PR answers: a fleet of serving workers
over one artifact store still pays per-worker *profile discovery* —
every fresh worker re-learns the hot set through threshold-many generic
calls per endpoint before its promotions (cheap artifact loads) land.
Persisting the fleet's heat (``publish_heat`` / ``adopt_heat``) moves
that discovery out of the request path: a fresh worker promotes
yesterday's hot set before its first request.

This bench replays mixed hot/cold traffic against the four-endpoint
Min fleet service (:mod:`repro.min.fleet`) and reports:

* **warm-up time** — worker-ready to steady state.  Cold: serve replay
  traffic until the last promotion lands (generic requests + compile).
  Warm: ``adopt_heat`` against the warm store + the first request.
  Best of two fresh workers per strategy;
* **adoption compiles** — the warm worker must specialize **zero**
  functions (its whole hot set comes out of the artifact store);
* **steady-state throughput and latency** — requests/s, p50 and p99
  request latency over the warm replay window;
* **pool byte-identity** — the same fleet batch compiled serially
  (``jobs=1``) and in the process pool (``jobs=2``) must leave
  byte-identical artifact stores.

Regression guards (CI, ``--quick``): warm worker compiles 0 functions
and reaches steady state >= 3x faster than cold profile discovery;
process-pool artifacts byte-identical to the serial compile's.
"""

import os
import tempfile
import time

from conftest import write_result
from repro.bench import format_table
from repro.core.specialize import SpecializeOptions
from repro.min.fleet import (
    constant_program,
    make_endpoints,
    make_fleet_worker,
    serve,
    sum_squares_program,
)
from repro.min.harness import sum_to_n_program
from repro.pipeline.profiles import ProfileStore

THRESHOLD = 8

ENDPOINTS = make_endpoints([
    ("checkout", sum_to_n_program(150)),      # hot
    ("search", sum_squares_program(100)),     # hot
    ("admin", constant_program(41)),          # cold
    ("report", constant_program(7)),          # cold
])
BY_NAME = {endpoint.name: endpoint for endpoint in ENDPOINTS}
HOT_NAMES = ["min_checkout", "min_search"]


def _traffic(rounds: int):
    """Replayed request mix: hot endpoints hammered, cold ones touched."""
    requests = []
    for i in range(rounds):
        requests.append("checkout")
        requests.append("search")
        if i == rounds // 2:
            requests.append("admin")
            requests.append("report")
    return requests


def _options(cache_dir: str) -> SpecializeOptions:
    return SpecializeOptions(backend="py", cache_dir=cache_dir)


def _replay(vm, controller, requests):
    """Serve the replay; returns (responses, latencies, steady_at) where
    ``steady_at`` is the elapsed time when the request that triggered
    the last promotion completed."""
    responses, latencies = [], []
    start = time.perf_counter()
    steady_at = 0.0
    promotions = controller.stats.promotions
    for name in requests:
        begin = time.perf_counter()
        responses.append(serve(vm, BY_NAME[name]))
        latencies.append(time.perf_counter() - begin)
        if controller.stats.promotions != promotions:
            promotions = controller.stats.promotions
            steady_at = time.perf_counter() - start
    return responses, latencies, steady_at


def _percentile(latencies, fraction):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1,
                       int(len(ordered) * fraction))]


def test_fleet_warm_start(benchmark, request):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    quick = request.config.getoption("--quick")
    rounds = 20 if quick else 40
    requests = _traffic(rounds)

    with tempfile.TemporaryDirectory() as cache_dir:
        store = ProfileStore(cache_dir)

        # ------------------------------------------------------------
        # Cold fleet: profile discovery + fresh compiles, twice (the
        # second worker shows the store amortizes compiles but NOT the
        # generic-call discovery tax — the gap heat adoption closes).
        # ------------------------------------------------------------
        cold_warmup = float("inf")
        expected = None
        for attempt in range(2):
            vm, controller = make_fleet_worker(
                ENDPOINTS, threshold=THRESHOLD,
                options=_options(cache_dir))
            start = time.perf_counter()
            responses, _, steady_at = _replay(vm, controller, requests)
            assert steady_at > 0, "cold worker must promote mid-replay"
            cold_warmup = min(cold_warmup, steady_at)
            if expected is None:
                expected = responses
            assert responses == expected
            assert controller.publish_heat(store)
        cold_tier0 = controller.stats.tier0_calls

        # ------------------------------------------------------------
        # Warm worker: adopt the fleet's heat, then replay.
        # ------------------------------------------------------------
        warm_warmup = float("inf")
        for attempt in range(2):
            vm, controller = make_fleet_worker(
                ENDPOINTS, threshold=THRESHOLD,
                options=_options(cache_dir))
            start = time.perf_counter()
            adopted = controller.adopt_heat(store)
            first = serve(vm, BY_NAME["checkout"])
            warm_warmup = min(warm_warmup,
                              time.perf_counter() - start)
            assert sorted(adopted) == sorted(HOT_NAMES)
            assert first == expected[0]
        engine_stats = controller.compiler.engine.stats
        warm_responses, warm_lat, warm_steady = _replay(
            vm, controller, requests)
        assert warm_responses == expected
        assert warm_steady == 0.0, "warm replay must not promote"

        total = sum(warm_lat)
        throughput = len(warm_lat) / total
        speedup = cold_warmup / warm_warmup
        rows = [
            ["cold warm-up (profile discovery)",
             f"{cold_warmup * 1000:.1f}ms",
             f"{cold_tier0} generic calls before steady state"],
            ["warm warm-up (heat adoption)",
             f"{warm_warmup * 1000:.1f}ms",
             f"{speedup:.1f}x faster, adopted {len(adopted)} endpoints"],
            ["adoption compiles",
             engine_stats.functions_specialized,
             f"{engine_stats.artifact_hits} artifact hits"],
            ["steady-state throughput",
             f"{throughput:.0f} req/s",
             f"{len(warm_lat)} requests replayed"],
            ["steady-state latency p50",
             f"{_percentile(warm_lat, 0.50) * 1e6:.0f}us", ""],
            ["steady-state latency p99",
             f"{_percentile(warm_lat, 0.99) * 1e6:.0f}us", ""],
        ]
        report = ("Fleet serving — persisted heat vs cold profile "
                  "discovery\n" +
                  format_table(["metric", "value", "detail"], rows) +
                  "\n\n" + controller.report())
        write_result("fleet", report)

        # --- regression guards ---------------------------------------
        assert engine_stats.functions_specialized == 0, (
            f"warm worker compiled "
            f"{engine_stats.functions_specialized} functions; the "
            f"adopted hot set must come entirely from the store")
        assert engine_stats.artifact_hits == len(HOT_NAMES)
        assert speedup >= 3.0, (
            f"heat adoption only {speedup:.2f}x faster than cold "
            f"profile discovery (need >= 3x)")
        # Only the two cold admin requests ran generically: the hot
        # endpoints never paid a tier-0 call on the warm worker.
        assert controller.stats.tier0_calls == 2


def test_fleet_pool_byte_identity(benchmark, request):
    """The fleet batch compiled via the process pool must leave an
    artifact store byte-identical to the serial compile's."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def compile_fleet(jobs):
        tmp = tempfile.mkdtemp(prefix=f"fleet_jobs{jobs}_")
        _, controller = make_fleet_worker(
            ENDPOINTS, threshold=THRESHOLD,
            options=SpecializeOptions(backend="py", jobs=jobs,
                                      cache_dir=tmp))
        controller.promote_all()
        assert controller.compiler.engine.stats.pool_degradations == 0
        return tmp

    def snapshot(root):
        files = {}
        for sub in ("spec", "py"):
            directory = os.path.join(root, sub)
            for entry in sorted(os.listdir(directory)):
                with open(os.path.join(directory, entry), "rb") as fh:
                    files[f"{sub}/{entry}"] = fh.read()
        return files

    serial_files = snapshot(compile_fleet(1))
    process_files = snapshot(compile_fleet(2))
    assert serial_files == process_files, (
        "process-pool artifacts diverge from the serial compile's")
    assert len(serial_files) == 2 * len(ENDPOINTS)

    rows = [
        ["artifacts compared", len(serial_files),
         "spec/ + py/, all byte-identical"],
        ["compiles", "serial jobs=1 vs process pool jobs=2", ""],
    ]
    write_result("fleet_pool_identity",
                 "Fleet batch — pool byte-identity\n" +
                 format_table(["metric", "value", "detail"], rows))
