"""The tiered compilation engine: one subsystem for every AOT flow.

Before this layer existed, each guest runtime hand-wired its own
specialize → optimize → emit sequence, compilation was strictly serial,
and both the in-memory :class:`~repro.core.cache.SpecializationCache`
and the compiled Python artifacts evaporated at process exit.  The
:class:`CompilationEngine` owns the whole tier-up path instead:

* it accepts **batches** of
  :class:`~repro.core.request.SpecializationRequest`\\s and runs the
  pure stages — specialize (which includes the verifying mid-end) and
  backend emission — on a ``concurrent.futures`` thread pool
  (``jobs=``), while everything order-sensitive (cache accounting,
  artifact writes, ``compile()``/``exec`` of emitted source, and the
  caller's module mutation / table registration / heap patching) stays
  single-threaded and is applied **in request order**, so results are
  bit-identical at any worker count;
* it layers the in-memory cache over a **persistent on-disk artifact
  store** (``cache_dir=``, :mod:`repro.pipeline.artifacts`): residual IR
  and emitted backend source survive process exit, a warm restart
  compiles zero functions, and fingerprint mismatches / version skew /
  corruption silently fall back to a fresh compile;
* residuals loaded from disk are **verified** before use (the artifact
  file is outside the process's trust boundary; a verifier rejection is
  treated exactly like corruption).

Worker-pool note: the default pool uses threads — under CPython's GIL
the win is stage *overlap* (disk loads, JSON parse, and the
allocator-heavy transform interleave).  ``SpecializeOptions(jobs=N,
pool="process")`` moves the specialize stage to a
``ProcessPoolExecutor`` instead: the module ships to each worker in its
serialized compile-side form (host import callables cannot cross a
process boundary, so imports travel signature-only) and residuals ship
back through the same byte-identical JSON round trip the artifact store
uses, so results are bit-identical to the thread pool at any worker
count.  Either way the order-sensitive stage 3 stays in the parent.
"""

from __future__ import annotations

import dataclasses
import marshal
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cache import (
    SpecializationCache,
    py_options_key,
    request_key,
)
from repro.core.request import SpecializationRequest
from repro.core.specialize import SpecializeOptions, specialize
from repro.core.stats import EngineStats
from repro.ir.clone import clone_function
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.ir.verifier import VerificationError, verify_function
from repro.pipeline.artifacts import (
    HIT,
    INVALID,
    MISS,
    ArtifactStore,
    residual_fingerprint,
)
from repro.pipeline.faults import FaultInjected, plan_from_options
from repro.pipeline.serialize import (
    SerializationError,
    function_from_dict,
    function_to_dict,
    module_from_dict,
    module_to_dict,
    request_from_dict,
    request_to_dict,
)


# ---------------------------------------------------------------------------
# Process-pool workers (``SpecializeOptions(pool="process")``).
#
# The specialize stage is pure, so it can leave the process: the module
# travels once per worker as its serialized compile-side form (functions,
# import *signatures*, table, globals — host callables never cross), the
# heap snapshot travels with it, and each task is one JSON-encoded
# request plus its precomputed cache key.  Workers return the residual
# in serialized form; the byte-identical Function round trip is what
# makes ``pool="process"`` indistinguishable from ``pool="thread"``
# (the determinism tier asserts artifact-level byte equality).  All
# *writes* — artifact store, in-memory cache, module mutation — stay in
# the parent's serial stage 3, so ordering is untouched.
# ---------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _process_worker_init(module_payload: dict, options, snapshot: bytes,
                         store_root: Optional[str]) -> None:
    """Per-worker setup: rebuild the compile-side module and open the
    (read-only-use) artifact store once, not per task."""
    store = None
    if store_root:
        try:
            store = ArtifactStore(store_root,
                                  fault_plan=plan_from_options(options))
        except OSError:
            store = None
    _WORKER_STATE["module"] = module_from_dict(module_payload)
    _WORKER_STATE["options"] = options
    _WORKER_STATE["snapshot"] = snapshot
    _WORKER_STATE["store"] = store


def _process_specialize(item: tuple):
    """One stage-1 task in a worker: artifact load / fresh specialize.

    Mirrors ``CompilationEngine._make_specialize_task`` exactly; the
    residual ships back serialized with its specialization stats.  A
    residual the encoding cannot express returns the ``"raw"`` marker
    and the parent recomputes that one plan locally; a task that raises
    (including injected ``specialize``/``verify`` faults) returns the
    ``"error"`` marker with the message — a worker never lets an
    exception escape, because one poisoned task must fail one request,
    not the whole pool.
    """
    request_data, key, name = item
    module = _WORKER_STATE["module"]
    options = _WORKER_STATE["options"]
    snapshot = _WORKER_STATE["snapshot"]
    store = _WORKER_STATE["store"]
    fault = plan_from_options(options)
    begin = time.perf_counter()
    artifact_status = MISS
    func: Optional[Function] = None
    try:
        if store is not None:
            func, artifact_status = store.load_residual(
                key, name, key[0], key[2])
            if func is not None:
                try:
                    verify_function(func, module)
                except VerificationError:
                    func, artifact_status = None, INVALID
        if func is None:
            request = request_from_dict(request_data)
            if fault is not None:
                fault.check("specialize")
            func = specialize(module, request, options, snapshot)
            if fault is not None:
                fault.check("verify")
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}", artifact_status,
                time.perf_counter() - begin)
    stats = getattr(func, "_weval_stats", None)
    try:
        payload = function_to_dict(func)
    except SerializationError:
        return "raw", None, artifact_status, time.perf_counter() - begin
    return payload, stats, artifact_status, time.perf_counter() - begin


@dataclasses.dataclass
class EngineResult:
    """Outcome of one request in a batch, in request order.

    Exactly one of ``cache_hit`` / ``artifact_hit`` / ``specialized`` is
    true for the request that *produced* the function; a duplicate
    request in the same batch reuses the producer's *residual* (one
    specialize run) and counts as a cache hit — backend source is still
    emitted per request, because the emitted code embeds the unique
    function name in its trap messages.  ``pyfunc``/``py_source`` are
    populated when the engine's backend is ``"py"``;
    ``fallback_reason`` records a residual the emitter cannot express
    (it stays on the IR VM).

    ``error`` is the fault-containment surface: an exception anywhere in
    this request's pipeline (specialize, verify, emit, a crashed pool
    worker) fails *this result only* — ``function`` is ``None``, nothing
    was cached or stored for it, and the rest of the batch is
    unaffected.  Callers must treat an errored result as "stay on the
    current tier"; the tiering controller turns it into quarantine.
    """

    request: SpecializationRequest
    function: Optional[Function]
    cache_hit: bool = False
    artifact_hit: bool = False
    specialized: bool = False
    py_source: Optional[str] = None
    pyfunc: Optional[Callable] = None
    fallback_reason: Optional[str] = None
    error: Optional[str] = None


class _TaskFailure:
    """Marker a pure-stage task returns in place of its result when it
    raised: the exception is contained at the task boundary so pool
    workers stay healthy and sibling requests complete normally."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


class _Plan:
    """Mutable per-request bookkeeping while a batch is in flight."""

    __slots__ = ("request", "name", "key", "func", "cache_hit",
                 "artifact_hit", "specialized", "dup_of",
                 "py_source", "py_fallback", "py_code", "py_from_store",
                 "error")

    def __init__(self, request: SpecializationRequest, name: str,
                 key: tuple):
        self.request = request
        self.name = name
        self.key = key
        self.func: Optional[Function] = None
        self.cache_hit = False
        self.artifact_hit = False
        self.specialized = False
        self.dup_of: Optional[int] = None
        self.py_source: Optional[str] = None
        self.py_fallback: Optional[str] = None
        self.py_code: Optional[object] = None
        self.py_from_store = False
        self.error: Optional[str] = None


class CompilationEngine:
    """Batch compiler for specialization requests (specialize → opt →
    verify → emit) with parallel pure stages and tiered caching."""

    def __init__(self, module: Module,
                 options: Optional[SpecializeOptions] = None,
                 cache: Optional[SpecializationCache] = None,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None):
        self.module = module
        self.options = options or SpecializeOptions()
        self.cache = cache
        self.jobs = max(1, jobs if jobs is not None else self.options.jobs)
        self.pool = self.options.pool
        self.fault_plan = plan_from_options(self.options)
        root = cache_dir if cache_dir is not None else self.options.cache_dir
        self.store: Optional[ArtifactStore] = None
        if root:
            try:
                self.store = ArtifactStore(root, fault_plan=self.fault_plan)
            except OSError:
                # An uncreatable cache directory (read-only image, path
                # collision) degrades to "no cache", never to a failed
                # build — matching the store's own write behavior.
                self.store = None
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Worker pool.
    # ------------------------------------------------------------------
    def _run_all(self, thunks: List[Callable[[], object]]) -> List[object]:
        """Run pure thunks, in a pool when configured; results come back
        in submission order regardless of completion order."""
        if self.jobs == 1 or len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        pool = ThreadPoolExecutor(max_workers=min(self.jobs, len(thunks)))
        try:
            futures = [pool.submit(thunk) for thunk in thunks]
            return [future.result() for future in futures]
        finally:
            # Tear the executor down on *every* exit path, and cancel
            # queued thunks when one result raised — without
            # cancel_futures a failing batch used to block here until
            # every already-queued sibling ran to completion.
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # Batch compilation.
    # ------------------------------------------------------------------
    def compile_batch(self, requests: List[SpecializationRequest],
                      snapshot: Optional[bytes] = None
                      ) -> List[EngineResult]:
        """Compile a batch of requests against one heap snapshot.

        Returns one :class:`EngineResult` per request, in request order.
        The engine does not mutate the module; the caller applies the
        functions (``module.add_function`` + table registration + heap
        patching) in this order — see
        :class:`~repro.core.snapshot.SnapshotCompiler`.
        """
        start = time.perf_counter()
        snapshot = bytes(snapshot if snapshot is not None
                         else self.module.memory_init)
        stats = self.stats
        stats.requests += len(requests)
        stats.inline_requests += sum(
            1 for r in requests if getattr(r, "inline_plan", ()))
        stats.jobs = max(stats.jobs, self.jobs)
        want_py = self.options.backend == "py"

        # Stage 0 (serial): keys, in-memory probes, in-batch dedup.
        plans: List[_Plan] = []
        first_of_key: Dict[tuple, int] = {}
        for request in requests:
            plan = _Plan(request, request.name(),
                         request_key(self.module, request, self.options,
                                     snapshot))
            owner = first_of_key.get(plan.key)
            if owner is not None:
                # Same key seen earlier in this batch: reuse its output
                # (the serial flow would have hit the cache here).
                plan.dup_of = owner
            else:
                if self.cache is not None:
                    plan.func = self.cache.lookup(plan.key, plan.name)
                    plan.cache_hit = plan.func is not None
                if plan.func is None:
                    first_of_key[plan.key] = len(plans)
            plans.append(plan)

        # Stage 1 (parallel, pure): artifact load / fresh specialize for
        # every first-occurrence miss.
        misses = [plan for plan in plans
                  if plan.func is None and plan.dup_of is None]
        outcomes = self._specialize_misses(misses, snapshot)
        for plan, (func, artifact_status, seconds) in zip(misses, outcomes):
            if isinstance(func, _TaskFailure):
                # Contained task crash: fail this request, leave every
                # sibling (and the caches) untouched.
                plan.error = func.message
            else:
                plan.func = func
                plan.artifact_hit = artifact_status == HIT
                plan.specialized = not plan.artifact_hit
            if artifact_status == INVALID:
                stats.artifact_invalid += 1
            stats.specialize_seconds += seconds

        # Resolve duplicates (serial): clone the producer's function.
        for plan in plans:
            if plan.dup_of is not None:
                producer = plans[plan.dup_of]
                if producer.error is not None:
                    # The producer crashed; its duplicates share the
                    # failure (there is no residual to clone).
                    plan.error = producer.error
                    continue
                plan.func = clone_function(producer.func, plan.name)
                plan.cache_hit = True
                if self.cache is not None:
                    # Accounting parity with the serial flow, where the
                    # producer's insert happened before this probe.
                    self.cache.hits += 1

        # Stage 2 (parallel, pure): backend emission for every function.
        if want_py:
            emit_plans = [plan for plan in plans if plan.error is None]
            emitted = self._run_all(
                [self._make_emit_task(plan) for plan in emit_plans])
            for plan, (source, fallback, code, status, seconds) in zip(
                    emit_plans, emitted):
                if isinstance(source, _TaskFailure):
                    plan.error = source.message
                else:
                    plan.py_source = source
                    plan.py_fallback = fallback
                    plan.py_code = code
                    plan.py_from_store = status == HIT
                if status == INVALID:
                    stats.artifact_invalid += 1
                stats.emit_seconds += seconds

        # Stage 3 (serial, request order): cache/artifact writes and
        # ``exec`` of emitted source.  Errored plans write nothing — a
        # crashed stage must not leave partial state in the caches.
        results = []
        for plan in plans:
            if plan.error is not None:
                stats.requests_failed += 1
            elif plan.cache_hit:
                stats.cache_hits += 1
                if self.store is not None and plan.dup_of is None and \
                        not self.store.has_residual(plan.key):
                    # A warm in-memory cache combined with a fresh
                    # cache_dir must still leave a complete store behind
                    # (the warm-start-on-disk contract).
                    ir_text = print_function(plan.func, order="id")
                    if self.store.store_residual(
                            plan.key, plan.func, ir_text,
                            plan.key[0], plan.key[2]):
                        stats.artifacts_written += 1
            elif plan.artifact_hit:
                stats.artifact_hits += 1
                if self.cache is not None:
                    self.cache.insert(plan.key, plan.func)
            elif plan.specialized:
                stats.functions_specialized += 1
                if self.cache is not None:
                    self.cache.insert(plan.key, plan.func)
                if self.store is not None:
                    ir_text = print_function(plan.func, order="id")
                    if self.store.store_residual(
                            plan.key, plan.func, ir_text,
                            plan.key[0], plan.key[2]):
                        stats.artifacts_written += 1
            results.append(self._finalize(plan))
        if self.store is not None:
            health = self.store.health()
            stats.store_write_failures = health["write_failures"]
            stats.store_degraded = 1 if health["degraded"] else 0
        stats.wall_seconds += time.perf_counter() - start
        return results

    def _specialize_misses(self, misses: List[_Plan], snapshot: bytes
                           ) -> List[Tuple[Function, str, float]]:
        """Run stage 1 on the configured pool flavor.

        The process pool needs every payload to serialize; a module or
        request the encoding cannot express falls back to the thread
        path wholesale (correctness first — both paths produce
        bit-identical residuals).
        """
        if self.pool == "process" and self.jobs > 1 and len(misses) > 1:
            outcomes = self._process_pool_specialize(misses, snapshot)
            if outcomes is not None:
                return outcomes
        return self._run_all(
            [self._make_specialize_task(plan, snapshot) for plan in misses])

    def _process_pool_specialize(self, misses: List[_Plan],
                                 snapshot: bytes
                                 ) -> Optional[List[Tuple[Function, str,
                                                          float]]]:
        """Stage 1 on a :class:`ProcessPoolExecutor`; ``None`` means
        "use the thread path" (unserializable payloads, or a pool the
        engine just degraded away from).

        Pool-level failure containment: a broken pool (a worker
        segfaulted or was OOM-killed — surfaced by ``concurrent.futures``
        as :class:`BrokenProcessPool` at the batch boundary) is retried
        once with a fresh pool, because one dead worker is usually
        transient.  A second consecutive failure flips ``self.pool`` to
        ``"thread"`` for the rest of the session: threads cannot crash
        independently of the parent, so tier-up keeps working at
        in-process speed instead of failing every batch.
        """
        try:
            module_payload = module_to_dict(self.module)
            items = [(request_to_dict(plan.request), plan.key, plan.name)
                     for plan in misses]
        except SerializationError:
            return None
        store_root = self.store.root if self.store is not None else None
        fault = self.fault_plan
        failures = 0
        while True:
            pool = None
            try:
                if fault is not None and fault.fires("pool_worker"):
                    raise BrokenProcessPool(
                        "injected fault at seam 'pool_worker'")
                pool = ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(misses)),
                    initializer=_process_worker_init,
                    initargs=(module_payload, self.options, snapshot,
                              store_root))
                shipped = list(pool.map(_process_specialize, items))
                break
            except (BrokenProcessPool, OSError):
                failures += 1
                if failures == 1:
                    self.stats.pool_rebuilds += 1
                    continue
                self.pool = "thread"
                self.stats.pool_degradations += 1
                return None
            finally:
                if pool is not None:
                    pool.shutdown(wait=True, cancel_futures=True)
        outcomes = []
        for plan, (payload, spec_stats, status, seconds) in zip(misses,
                                                                shipped):
            if payload == "error":
                outcomes.append((_TaskFailure(spec_stats), status, seconds))
                continue
            if payload == "raw":
                # The worker specialized fine but could not serialize
                # the residual back; recompute this one plan locally.
                outcomes.append(
                    self._make_specialize_task(plan, snapshot)())
                continue
            func = function_from_dict(payload, name=plan.name)
            if spec_stats is not None:
                func._weval_stats = spec_stats
            outcomes.append((func, status, seconds))
        return outcomes

    def _make_specialize_task(self, plan: _Plan, snapshot: bytes):
        fault = self.fault_plan

        def task() -> Tuple[object, str, float]:
            begin = time.perf_counter()
            artifact_status = MISS
            func: Optional[Function] = None
            try:
                if self.store is not None:
                    func, artifact_status = self.store.load_residual(
                        plan.key, plan.name, plan.key[0], plan.key[2])
                    if func is not None:
                        try:
                            # Disk artifacts sit outside the process's
                            # trust boundary: verify before use, and
                            # treat a rejection exactly like corruption.
                            verify_function(func, self.module)
                        except VerificationError:
                            func, artifact_status = None, INVALID
                if func is None:
                    if fault is not None:
                        fault.check("specialize")
                    func = specialize(self.module, plan.request,
                                      self.options, snapshot)
                    if fault is not None:
                        fault.check("verify")
            except Exception as exc:
                # Contain any stage crash at the task boundary: the
                # marker fails this one request in stage 3; the pool and
                # sibling tasks are unaffected.
                return (_TaskFailure(f"{type(exc).__name__}: {exc}"),
                        artifact_status, time.perf_counter() - begin)
            return func, artifact_status, time.perf_counter() - begin
        return task

    def _make_emit_task(self, plan: _Plan):
        def task():
            begin = time.perf_counter()
            try:
                source, fallback, code, status = self._emit_one(plan.func)
            except Exception as exc:
                return (_TaskFailure(f"{type(exc).__name__}: {exc}"),
                        None, None, MISS, time.perf_counter() - begin)
            return (source, fallback, code, status,
                    time.perf_counter() - begin)
        return task

    def _emit_one(self, func: Function
                  ) -> Tuple[Optional[str], Optional[str], Optional[object],
                             str]:
        """Emit (or warm-load) backend source for one residual function.

        Returns ``(source, fallback_reason, code, store_status)``.

        ``code`` is the tier-3½ rung: the ``compile()``d code object for
        ``source``, unmarshaled from the artifact store (a warm start
        skips parse+compile entirely) or compiled here, inside the
        *parallel* emit stage, so the serial ``exec`` in
        :meth:`_finalize` only binds globals.  ``None`` (any marshal or
        interpreter skew in the store) means "compile from source".
        """
        from repro.backend import UnsupportedConstruct, emit_function_source
        mode_key = py_options_key(self.options)
        fp = None
        if self.store is not None:
            fp = residual_fingerprint(print_function(func, order="id"))
            cached, status = self.store.load_py_source(fp, mode_key)
            if cached is not None:
                return cached[0], cached[1], cached[2], status
        if self.fault_plan is not None:
            self.fault_plan.check("emit")
        try:
            source, _mode_used, _emitter = emit_function_source(
                func, self.module, mode=self.options.emit_mode)
            fallback = None
        except UnsupportedConstruct as exc:
            source, fallback = None, str(exc)
        code = code_bytes = None
        if source is not None:
            code, code_bytes = self._precompile(func.name, source)
        if self.store is not None:
            self.store.store_py_source(fp, source, fallback, mode_key,
                                       code_bytes=code_bytes)
        return source, fallback, code, MISS

    @staticmethod
    def _precompile(name: str, source: str) -> Tuple[Optional[object],
                                                     Optional[bytes]]:
        """``compile()`` emitted source ahead of the serial stage.

        The filename matches ``compile_python_source`` exactly so
        tracebacks are identical on both paths.  A source that does not
        compile returns ``(None, None)`` — the serial stage recompiles
        and converts the failure into a backend fallback as before.
        """
        try:
            code = compile(source, f"<pybackend:{name}>", "exec")
            return code, marshal.dumps(code)
        except Exception:
            return None, None

    def _finalize(self, plan: _Plan) -> EngineResult:
        """Turn a finished plan into a result; ``exec`` emitted source
        (serial — callable identity is created in request order)."""
        from repro.backend import UnsupportedConstruct, compile_python_source
        stats = self.stats
        pyfunc = None
        if plan.py_source is not None:
            try:
                pyfunc = compile_python_source(plan.name, plan.py_source,
                                               code=plan.py_code)
            except UnsupportedConstruct as exc:
                plan.py_source, plan.py_fallback = None, str(exc)
            except Exception as exc:
                # ``exec`` of emitted source is deterministic for a given
                # residual, so an unexpected crash here is a permanent
                # emitter bug for this function: record a fallback (tier
                # 1 keeps serving it) instead of failing the request.
                plan.py_source = None
                plan.py_fallback = f"{type(exc).__name__}: {exc}"
        if plan.py_source is not None or plan.py_fallback is not None:
            if plan.py_from_store:
                stats.backend_source_hits += 1
                if plan.py_code is not None:
                    stats.backend_code_hits += 1
            else:
                stats.backend_emitted += 1
            if plan.py_fallback is not None:
                stats.backend_fallbacks += 1
        return EngineResult(
            request=plan.request,
            function=plan.func,
            cache_hit=plan.cache_hit,
            artifact_hit=plan.artifact_hit,
            specialized=plan.specialized,
            py_source=plan.py_source,
            pyfunc=pyfunc,
            fallback_reason=plan.py_fallback,
            error=plan.error,
        )

    # ------------------------------------------------------------------
    # Backend-only compilation (tier-up of functions already in the
    # module, e.g. ``SnapshotCompiler.compile_backend`` after a
    # ``backend="vm"`` specialization run).
    # ------------------------------------------------------------------
    def compile_backend_functions(
            self, names: List[str]
            ) -> Tuple[Dict[str, Callable], List[Tuple[str, str]]]:
        """Emit + compile module functions to Python callables.

        Returns ``(compiled, fallbacks)`` like
        :func:`repro.backend.compile_functions`, but with parallel
        emission and artifact-store reuse.
        """
        from repro.backend import UnsupportedConstruct, compile_python_source
        start = time.perf_counter()
        stats = self.stats
        stats.jobs = max(stats.jobs, self.jobs)
        compiled: Dict[str, Callable] = {}
        fallbacks: List[Tuple[str, str]] = []
        todo: List[str] = []
        for name in names:
            if self.module.functions.get(name) is None:
                fallbacks.append((name, "not an IR function"))
            else:
                todo.append(name)
        outcomes = self._run_all([
            self._make_named_emit_task(name) for name in todo])
        for name, (source, fallback, code, status,
                   seconds) in zip(todo, outcomes):
            stats.emit_seconds += seconds
            if isinstance(source, _TaskFailure):
                # Contained emit crash.  Deliberately *neither* compiled
                # nor a fallback: a fallback is the permanent
                # "emitter cannot express this" verdict, while a crash
                # is transient — leaving the name out of both tells the
                # tiering controller to quarantine and retry.
                stats.requests_failed += 1
                continue
            if source is not None:
                try:
                    compiled[name] = compile_python_source(name, source,
                                                           code=code)
                except UnsupportedConstruct as exc:
                    source, fallback = None, str(exc)
                except Exception as exc:
                    source, fallback = None, f"{type(exc).__name__}: {exc}"
            if source is None:
                fallbacks.append((name, fallback))
            if status == HIT:
                stats.backend_source_hits += 1
                if code is not None:
                    stats.backend_code_hits += 1
            else:
                stats.backend_emitted += 1
            if status == INVALID:
                stats.artifact_invalid += 1
        stats.backend_fallbacks += len(fallbacks)
        stats.wall_seconds += time.perf_counter() - start
        return compiled, fallbacks

    def _make_named_emit_task(self, name: str):
        def task():
            begin = time.perf_counter()
            try:
                source, fallback, code, status = self._emit_one(
                    self.module.functions[name])
            except Exception as exc:
                return (_TaskFailure(f"{type(exc).__name__}: {exc}"),
                        None, None, MISS, time.perf_counter() - begin)
            return (source, fallback, code, status,
                    time.perf_counter() - begin)
        return task
