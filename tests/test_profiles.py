"""Tests for persisted cross-process profiles (the fleet's hot-set).

Covers the :class:`~repro.pipeline.profiles.ProfileStore` file format
and merge discipline, the corruption-is-no-heat contract, concurrent
cross-process merges (with and without ``fcntl`` advisory locks), and
the controller integration: ``publish_heat`` delta bookkeeping and
``adopt_heat`` warm-start promotion against a shared artifact store.
"""

import json
import multiprocessing
import os

import pytest

from repro.core.specialize import SpecializeOptions
from repro.min.fleet import (
    constant_program,
    make_endpoints,
    make_fleet_worker,
    serve,
    sum_squares_program,
)
from repro.min.harness import make_tiered_min, sum_to_n_program
from repro.min.interp import PROGRAM_BASE
from repro.pipeline import artifacts, tiering
from repro.pipeline.profiles import (
    PROFILE_VERSION,
    ProfileStore,
    open_profile_store,
    profile_key,
)


def _args(program, value):
    return [PROGRAM_BASE, len(program.words), value]


# ---------------------------------------------------------------------------
# Store basics.
# ---------------------------------------------------------------------------
class TestProfileStore:
    def test_missing_file_reads_as_no_heat(self, tmp_path):
        assert ProfileStore(str(tmp_path)).load() == {}

    def test_merge_then_load(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        assert store.merge({"f@0x10": {"calls": 3, "backedges": 40}})
        assert store.load() == {"f@0x10": {"calls": 3, "backedges": 40}}

    def test_merge_accumulates_across_calls(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.merge({"f@0x10": {"calls": 2, "backedges": 5}})
        store.merge({"f@0x10": {"calls": 1, "backedges": 0},
                     "g@0x20": {"calls": 7, "backedges": 1}})
        assert store.load() == {
            "f@0x10": {"calls": 3, "backedges": 5},
            "g@0x20": {"calls": 7, "backedges": 1}}

    def test_zero_delta_merge_is_a_successful_noop(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        assert store.merge({"f@0x10": {"calls": 0, "backedges": 0}})
        assert store.load() == {}
        assert not os.path.exists(store.path)

    def test_profile_key_format(self):
        assert profile_key("min_interp", 0x2000) == "min_interp@0x2000"

    def test_open_profile_store_without_cache_dir(self):
        assert open_profile_store(None) is None
        assert open_profile_store("") is None

    def test_open_profile_store_uncreatable_root(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        assert open_profile_store(str(blocker / "cache")) is None


# ---------------------------------------------------------------------------
# Corruption paranoia: bad heat reads as no heat, never as an error.
# ---------------------------------------------------------------------------
class TestProfileRobustness:
    def _write(self, store, payload: bytes):
        os.makedirs(store.dir, exist_ok=True)
        with open(store.path, "wb") as handle:
            handle.write(payload)

    def test_garbage_reads_as_no_heat(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        self._write(store, b"\x00\xffnot json")
        assert store.load() == {}

    def test_version_skew_reads_as_no_heat(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        self._write(store, json.dumps(
            {"version": PROFILE_VERSION + 1,
             "heat": {"f@0x10": {"calls": 1, "backedges": 0}}}).encode())
        assert store.load() == {}

    def test_non_dict_payload_reads_as_no_heat(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        self._write(store, json.dumps([1, 2, 3]).encode())
        assert store.load() == {}

    def test_mangled_record_is_dropped_not_fatal(self, tmp_path):
        """Per-record validation: one bad record (wrong type, negative,
        bool, missing field) drops that record and keeps the rest."""
        store = ProfileStore(str(tmp_path))
        self._write(store, json.dumps({
            "version": PROFILE_VERSION,
            "heat": {
                "good@0x1": {"calls": 4, "backedges": 2},
                "neg@0x2": {"calls": -1, "backedges": 0},
                "bool@0x3": {"calls": True, "backedges": 0},
                "str@0x4": {"calls": "hot", "backedges": 0},
                "missing@0x5": {"calls": 2},
                "shape@0x6": [1, 2],
            }}).encode())
        assert store.load() == {"good@0x1": {"calls": 4, "backedges": 2}}

    def test_merge_over_corrupt_file_restarts_heat(self, tmp_path):
        """Merging into a corrupt heat file replaces it with a valid one
        containing (at least) the merged delta."""
        store = ProfileStore(str(tmp_path))
        self._write(store, b"torn!")
        assert store.merge({"f@0x10": {"calls": 1, "backedges": 0}})
        assert store.load() == {"f@0x10": {"calls": 1, "backedges": 0}}


# ---------------------------------------------------------------------------
# Concurrent cross-process merges.
# ---------------------------------------------------------------------------

def _hammer_heat(root: str, barrier, rounds: int) -> None:
    """Child-process body: merge one-call deltas into the shared heat
    file, overlapping with sibling writers."""
    store = ProfileStore(root)
    barrier.wait()
    for _ in range(rounds):
        assert store.merge({"f@0x10": {"calls": 1, "backedges": 2}})


def _hammer_heat_nofcntl(root: str, barrier, rounds: int) -> None:
    """Lock-free variant: a racing ``os.replace`` can make any single
    merge report failure (the reread-validate step sees the sibling's
    file), so only overall progress is asserted, not per-merge success."""
    artifacts.fcntl = None
    store = ProfileStore(root)
    barrier.wait()
    merged = 0
    for _ in range(rounds):
        if store.merge({"f@0x10": {"calls": 1, "backedges": 2}}):
            merged += 1
    assert merged >= 1


class TestCrossProcessHeat:
    WORKERS = 2
    ROUNDS = 25

    def _run(self, root, target):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(self.WORKERS)
        workers = [ctx.Process(target=target,
                               args=(root, barrier, self.ROUNDS))
                   for _ in range(self.WORKERS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

    def test_concurrent_merges_lose_no_heat(self, tmp_path):
        """With advisory locks, read-modify-write merges serialize: the
        final heat is the exact sum of every worker's deltas."""
        self._run(str(tmp_path), _hammer_heat)
        heat = ProfileStore(str(tmp_path)).load()
        total = self.WORKERS * self.ROUNDS
        assert heat == {"f@0x10": {"calls": total, "backedges": 2 * total}}

    def test_lock_free_merges_stay_valid(self, tmp_path, monkeypatch):
        """Without ``fcntl`` the merge degrades to lock-free: racing
        read-modify-writes may lose increments, but the surviving file
        is always a whole, valid heat map (atomic replace + per-record
        validation)."""
        monkeypatch.setattr(artifacts, "fcntl", None)
        self._run(str(tmp_path), _hammer_heat_nofcntl)
        store = ProfileStore(str(tmp_path))
        heat = store.load()
        assert set(heat) == {"f@0x10"}
        record = heat["f@0x10"]
        total = self.WORKERS * self.ROUNDS
        assert 1 <= record["calls"] <= total
        assert record["backedges"] == 2 * record["calls"]
        # And the degraded store still merges going forward.
        assert store.merge({"f@0x10": {"calls": 1, "backedges": 2}})


# ---------------------------------------------------------------------------
# Controller integration: publish/adopt.
# ---------------------------------------------------------------------------
class TestHeatPublishAdopt:
    def _serve(self, program, cache_dir, calls=5, threshold=3):
        options = SpecializeOptions(backend="vm", cache_dir=cache_dir)
        vm, controller = make_tiered_min(program, threshold=threshold,
                                         options=options)
        for _ in range(calls):
            vm.call("min_interp", _args(program, 0))
        return vm, controller

    def test_publish_then_adopt_skips_reprofiling(self, tmp_path):
        """A fresh worker adopting published heat promotes the hot set
        up front — compiling zero fresh functions against the warm
        artifact store — and serves its first call at steady state."""
        program = sum_to_n_program(40)
        cache_dir = str(tmp_path)
        store = ProfileStore(cache_dir)
        vm_a, controller_a = self._serve(program, cache_dir)
        assert controller_a.stats.promotions == 1
        assert controller_a.publish_heat(store)

        vm_b, controller_b = make_tiered_min(
            program, threshold=3,
            options=SpecializeOptions(backend="vm", cache_dir=cache_dir))
        adopted = controller_b.adopt_heat(store)
        assert len(adopted) == 1
        engine_stats = controller_b.compiler.engine.stats
        assert engine_stats.functions_specialized == 0
        assert engine_stats.artifact_hits == 1
        # First call runs the adopted residual immediately.
        result = vm_b.call("min_interp", _args(program, 0))
        assert result == vm_a.call("min_interp", _args(program, 0))
        assert controller_b.stats.tier0_calls == 0

    def test_fleet_worker_adopts_exactly_the_hot_set(self, tmp_path):
        """A mixed fleet, two hot endpoints and two cold: a fresh worker
        adopting the published heat promotes exactly the hot two out of
        the store, and a replay of the traffic promotes nothing more
        and pays generic calls only for the cold two."""
        endpoints = make_endpoints([
            ("checkout", sum_to_n_program(40)),
            ("search", sum_squares_program(12)),
            ("admin", constant_program(41)),
            ("report", constant_program(7)),
        ])
        traffic = [0, 1] * 10 + [2, 3]
        options = SpecializeOptions(backend="py", cache_dir=str(tmp_path))
        store = ProfileStore(str(tmp_path))
        vm_a, controller_a = make_fleet_worker(endpoints, threshold=8,
                                               options=options)
        expected = [serve(vm_a, endpoints[i]) for i in traffic]
        assert controller_a.stats.promotions == 2
        assert controller_a.publish_heat(store)

        vm_b, controller_b = make_fleet_worker(endpoints, threshold=8,
                                               options=options)
        adopted = controller_b.adopt_heat(store)
        assert sorted(adopted) == ["min_checkout", "min_search"]
        engine_stats = controller_b.compiler.engine.stats
        assert engine_stats.functions_specialized == 0
        assert engine_stats.artifact_hits == 2
        assert [serve(vm_b, endpoints[i]) for i in traffic] == expected
        assert controller_b.stats.promotions == 2  # none after adoption
        assert controller_b.stats.tier0_calls == 2
        assert controller_b.tier_counts()[0] == 2  # cold stay generic

    def test_publish_sends_only_deltas(self, tmp_path):
        program = sum_to_n_program(10)
        store = ProfileStore(str(tmp_path))
        vm, controller = self._serve(program, str(tmp_path), calls=4,
                                     threshold=100)
        assert controller.publish_heat(store)
        first = store.load()
        # No new calls: the second publish must not re-contribute.
        assert controller.publish_heat(store)
        assert store.load() == first
        vm.call("min_interp", _args(program, 0))
        assert controller.publish_heat(store)
        key = profile_key("min_interp", PROGRAM_BASE)
        assert store.load()[key]["calls"] == first[key]["calls"] + 1

    def test_failed_publish_retains_delta(self, tmp_path, monkeypatch):
        program = sum_to_n_program(10)
        store = ProfileStore(str(tmp_path))
        vm, controller = self._serve(program, str(tmp_path), calls=3,
                                     threshold=100)
        monkeypatch.setattr(ProfileStore, "merge",
                            lambda self, deltas: False)
        assert not controller.publish_heat(store)
        monkeypatch.undo()
        assert controller.publish_heat(store)
        key = profile_key("min_interp", PROGRAM_BASE)
        assert store.load()[key]["calls"] == 3

    def test_adopted_heat_is_not_republished(self, tmp_path):
        """Adoption marks fleet heat as already published, so a worker
        that adopts and then publishes contributes only its own calls."""
        program = sum_to_n_program(10)
        store = ProfileStore(str(tmp_path))
        vm_a, controller_a = self._serve(program, str(tmp_path), calls=4,
                                         threshold=100)
        assert controller_a.publish_heat(store)
        key = profile_key("min_interp", PROGRAM_BASE)
        baseline = store.load()[key]["calls"]

        vm_b, controller_b = make_tiered_min(
            program, threshold=100,
            options=SpecializeOptions(backend="vm",
                                      cache_dir=str(tmp_path)))
        controller_b.adopt_heat(store)
        vm_b.call("min_interp", _args(program, 0))
        assert controller_b.publish_heat(store)
        assert store.load()[key]["calls"] == baseline + 1

    def test_cold_heat_below_threshold_seeds_without_promoting(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tiering, "BACKEDGE_WEIGHT", 1 << 30)
        program = sum_to_n_program(10)
        store = ProfileStore(str(tmp_path))
        vm_a, controller_a = self._serve(program, str(tmp_path), calls=2,
                                         threshold=100)
        assert controller_a.publish_heat(store)

        vm_b, controller_b = make_tiered_min(
            program, threshold=4,
            options=SpecializeOptions(backend="vm",
                                      cache_dir=str(tmp_path)))
        assert controller_b.adopt_heat(store) == []
        assert controller_b.stats.promotions == 0
        # The seeded counters shorten the remaining runway: 2 fleet
        # calls + 2 local calls cross the threshold of 4.
        vm_b.call("min_interp", _args(program, 0))
        assert controller_b.stats.promotions == 0
        vm_b.call("min_interp", _args(program, 0))
        assert controller_b.stats.promotions == 1

    def test_adoption_leaves_a_blacklisted_function_at_tier_0(
            self, tmp_path):
        """Regression: ``adopt_heat`` promoted a blacklisted function to
        tier 1 and patched its slot, while ``_on_call`` kept counting
        its calls as tier 0.  A blacklist is final, fleet heat
        included."""
        from repro.pipeline.faults import FaultPlan
        program = sum_to_n_program(30)
        plan = FaultPlan.always("specialize")
        vm, controller = make_tiered_min(
            program, threshold=1, options=SpecializeOptions(fault_plan=plan))
        for _ in range(20):
            vm.call("min_interp", _args(program, 2))
        profile = next(iter(controller.profiles.values()))
        assert profile.blacklisted and profile.tier == 0
        plan.disarm()
        store = ProfileStore(str(tmp_path))
        assert controller.publish_heat(store)
        assert store.merge({profile_key("min_interp", PROGRAM_BASE):
                            {"calls": 100, "backedges": 0}})
        assert controller.adopt_heat(store) == []
        assert profile.tier == 0
        assert vm.load_u64(profile.entry.result_addr) == 0

    def test_adopt_from_empty_store_is_a_noop(self, tmp_path):
        program = sum_to_n_program(10)
        store = ProfileStore(str(tmp_path))
        vm, controller = make_tiered_min(
            program, threshold=3,
            options=SpecializeOptions(backend="vm",
                                      cache_dir=str(tmp_path)))
        assert controller.adopt_heat(store) == []
        assert controller.stats.promotions == 0


# ---------------------------------------------------------------------------
# Endpoint churn vs persisted heat: heat keys follow program content.
# ---------------------------------------------------------------------------
class TestChurnHeatKeys:
    def _fleet_worker(self, endpoint, cache_dir, threshold=3):
        from repro.min.fleet import make_fleet_worker
        options = SpecializeOptions(backend="vm", cache_dir=cache_dir)
        return make_fleet_worker([endpoint], threshold=threshold,
                                 options=options)

    def test_new_tenant_at_reused_base_adopts_no_stale_heat(
            self, tmp_path):
        """Heat published for program A at a base must not warm a
        *different* program B later registered at the same base — fleet
        heat keys on the endpoint's content token, not its address."""
        from repro.min.fleet import endpoint_at, serve, sum_squares_program
        store = ProfileStore(str(tmp_path))
        old = endpoint_at(0, "svc", sum_to_n_program(40))
        vm_a, controller_a = self._fleet_worker(old, str(tmp_path))
        for _ in range(5):
            serve(vm_a, old)
        assert controller_a.stats.promotions == 1
        assert controller_a.publish_heat(store)
        assert old.tier_entry().heat_key in store.load()

        new = endpoint_at(0, "svc", sum_squares_program(12))
        vm_b, controller_b = self._fleet_worker(new, str(tmp_path))
        assert controller_b.adopt_heat(store) == []
        assert controller_b.stats.promotions == 0
        profile = controller_b.profiles[("min_interp", new.base)]
        assert profile.calls == 0 and profile.backedges == 0

    def test_same_program_adopts_heat_across_restart(self, tmp_path):
        """The content token is the *stable* half of the key: a fresh
        worker serving the same program does inherit the fleet's heat."""
        from repro.min.fleet import endpoint_at, serve
        store = ProfileStore(str(tmp_path))
        endpoint = endpoint_at(0, "svc", sum_to_n_program(40))
        vm_a, controller_a = self._fleet_worker(endpoint, str(tmp_path))
        for _ in range(5):
            serve(vm_a, endpoint)
        assert controller_a.publish_heat(store)

        vm_b, controller_b = self._fleet_worker(endpoint, str(tmp_path))
        adopted = controller_b.adopt_heat(store)
        assert len(adopted) == 1
        assert serve(vm_b, endpoint) == serve(vm_a, endpoint)
        assert controller_b.stats.tier0_calls == 0


# ---------------------------------------------------------------------------
# Fault containment (PR 9): merge failures, degraded mode, and the
# publish high-water-mark race.
# ---------------------------------------------------------------------------
class TestProfileFaultContainment:
    def test_heat_accrued_during_merge_is_not_lost(self, tmp_path):
        """Regression: publish_heat used to snap the published marks to
        the *live* counters after a merge — heat arriving while the
        merge was in flight (another thread, or the workload re-entering
        through a host call) was silently marked as published and never
        reached the fleet."""
        program = sum_to_n_program(5)
        vm, controller = make_tiered_min(
            program, threshold=float("inf"),
            options=SpecializeOptions(backend="vm"))
        for _ in range(3):
            vm.call("min_interp", _args(program, 1))
        profile = next(iter(controller.profiles.values()))
        store = ProfileStore(str(tmp_path))
        real_merge = store.merge

        def racing_merge(deltas):
            ok = real_merge(deltas)
            profile.calls += 2  # heat landing mid-merge
            return ok

        store.merge = racing_merge
        assert controller.publish_heat(store)
        # Only the merged delta was marked published; the racing calls
        # remain pending...
        assert profile.published_calls == 3
        assert profile.calls - profile.published_calls == 2
        store.merge = real_merge
        assert controller.publish_heat(store)
        key = profile_key("min_interp", PROGRAM_BASE)
        # ... and the next publish delivers them: nothing lost, nothing
        # double-counted.
        assert store.load()[key]["calls"] == 5

    def test_merge_outage_degrades_to_memory_heat(self, tmp_path):
        from repro.pipeline.faults import FaultPlan
        from repro.pipeline.profiles import DEGRADE_AFTER_MERGE_FAILURES
        store = ProfileStore(str(tmp_path),
                             fault_plan=FaultPlan.always("heat_merge"))
        delta = {"f@0x10": {"calls": 2, "backedges": 10}}
        for _ in range(DEGRADE_AFTER_MERGE_FAILURES - 1):
            assert not store.merge(delta)  # failed, delta retained
        assert not store.degraded
        assert store.merge(delta)  # threshold trip: absorbed in memory
        assert store.degraded
        assert store.health()["memory_records"] == 1
        # Degraded-mode heat keeps accumulating and stays visible to
        # this process's own loads...
        assert store.merge(delta)
        assert store.load() == {"f@0x10": {"calls": 4, "backedges": 20}}
        # ... but never reached the disk.
        assert ProfileStore(str(tmp_path)).load() == {}

    def test_successful_merge_resets_failure_streak(self, tmp_path):
        from repro.pipeline.faults import FaultPlan
        # Fires on consults 0 and 1, then heals: two failures, then a
        # success must reset the consecutive counter (no degrade).
        plan = FaultPlan(at={"heat_merge": (0, 1)})
        store = ProfileStore(str(tmp_path), fault_plan=plan)
        delta = {"f@0x10": {"calls": 1, "backedges": 0}}
        assert not store.merge(delta)
        assert not store.merge(delta)
        assert store.merge(delta)  # landed on disk
        assert not store.degraded
        assert store.merge_failures == 2
        assert store.health()["memory_records"] == 0
        assert ProfileStore(str(tmp_path)).load() == \
            {"f@0x10": {"calls": 1, "backedges": 0}}

    def test_degraded_publish_keeps_promotion_decisions_warm(self, tmp_path):
        """A worker whose profile store degraded still adopts its own
        memory heat (load folds the overlay), so local promotion
        decisions keep working while fleet sharing is suspended."""
        from repro.pipeline.faults import FaultPlan
        store = ProfileStore(str(tmp_path),
                             fault_plan=FaultPlan.always("heat_merge"))
        delta = {profile_key("min_interp", PROGRAM_BASE):
                 {"calls": 50, "backedges": 0}}
        while not store.degraded:
            store.merge(delta)
        program = sum_to_n_program(10)
        vm, controller = make_tiered_min(
            program, threshold=3,
            options=SpecializeOptions(backend="vm"))
        adopted = controller.adopt_heat(store)
        assert len(adopted) == 1  # memory-only heat still promotes
