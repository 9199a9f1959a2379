"""The tiered compilation engine: one subsystem for every AOT flow.

The :class:`CompilationEngine` owns the whole tier-up path:

* it accepts **batches** of
  :class:`~repro.core.request.SpecializationRequest`\\s and runs them
  through four stages — keys and in-memory probes, specialize (which
  includes the verifying mid-end), backend emission, and the
  order-sensitive tail (cache accounting, artifact writes, ``exec`` of
  emitted code) — each in **request order**; the caller's module
  mutation / table registration / heap patching follows the same order;
* it layers the in-memory cache over a **persistent on-disk artifact
  store** (``SpecializeOptions(cache_dir=...)``,
  :mod:`repro.pipeline.artifacts`): residual IR and emitted backend
  source survive process exit, a warm restart compiles zero functions,
  and fingerprint mismatches / version skew / corruption silently fall
  back to a fresh compile;
* residuals loaded from disk are **verified** before use (the artifact
  file is outside the process's trust boundary; a verifier rejection is
  treated exactly like corruption).

There is **one stage-1 body**, :func:`_specialize_one` (artifact load →
verify → else ``specialize``, faults and containment included).  The
engine calls it in-process; with ``SpecializeOptions(jobs=N)``, ``N >
1``, a batch with more than one miss calls it inside a
``ProcessPoolExecutor`` worker, which only adds (de)serialization: the
module ships once per worker in its serialized compile-side form (host
import callables cannot cross a process boundary, so imports travel
signature-only) and residuals ship back through the same byte-identical
JSON round trip the artifact store uses, so results are bit-identical
to the serial path at any worker count.  Everything else — emission and
all writes — stays in the parent.  A payload the encoding cannot
express, or a pool that broke twice in a row, lands on the serial path.
"""

from __future__ import annotations

import dataclasses
import marshal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cache import SpecializationCache, request_key
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
from repro.pipeline.faults import plan_from_options
from repro.pipeline.serialize import (
    SerializationError,
    function_from_dict,
    function_to_dict,
    module_from_dict,
    module_to_dict,
    request_from_dict,
    request_to_dict,
)


def _open_store(options: SpecializeOptions) -> Optional[ArtifactStore]:
    """The artifact store ``options.cache_dir`` names, if any.  An
    uncreatable directory (read-only image, path collision) degrades to
    "no cache", never to a failed build — matching the store's own
    write behavior."""
    if not options.cache_dir:
        return None
    try:
        return ArtifactStore(options.cache_dir,
                             fault_plan=plan_from_options(options))
    except OSError:
        return None


def _specialize_one(module: Module, request: SpecializationRequest,
                    key: tuple, name: str, options: SpecializeOptions,
                    snapshot: bytes, store: Optional[ArtifactStore]
                    ) -> Tuple[Optional[Function], Optional[str], str, float]:
    """Stage 1 for one request: artifact load, else fresh specialize.

    Returns ``(function, error, artifact_status, seconds)``.  Any
    exception (injected ``specialize``/``verify`` faults included) is
    contained here and comes back as the ``error`` message with no
    function: one poisoned request fails in stage 3, never the batch or
    the pool.
    """
    fault = plan_from_options(options)
    begin = time.perf_counter()
    artifact_status = MISS
    func = error = None
    try:
        if store is not None:
            func, artifact_status = store.load_residual(
                key, name, key[0], key[2])
            if func is not None:
                try:
                    # Disk artifacts sit outside the process's trust
                    # boundary: verify before use, and treat a
                    # rejection exactly like corruption.
                    verify_function(func, module)
                except VerificationError:
                    func, artifact_status = None, INVALID
        if func is None:
            if fault is not None:
                fault.check("specialize")
            func = specialize(module, request, options, snapshot)
            if fault is not None:
                fault.check("verify")
    except Exception as exc:
        func, error = None, f"{type(exc).__name__}: {exc}"
    return func, error, artifact_status, time.perf_counter() - begin


# ---------------------------------------------------------------------------
# Process-pool workers (``SpecializeOptions(jobs=N)``, N > 1).
#
# Stage 1 is pure, so it can leave the process: the module travels once
# per worker as its serialized compile-side form (functions, import
# *signatures*, table, globals — host callables never cross), the heap
# snapshot travels with it, and each task is one JSON-encoded request
# plus its precomputed cache key.  All *writes* — artifact store,
# in-memory cache, module mutation — stay in the parent, so ordering is
# untouched.
# ---------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _pool_worker_init(module_payload: dict, options, snapshot: bytes
                      ) -> None:
    """Per-worker setup: rebuild the compile-side module and open the
    (read-only-use) artifact store once, not per task."""
    _WORKER_STATE.update(module=module_from_dict(module_payload),
                         options=options, snapshot=snapshot,
                         store=_open_store(options))


def _pool_specialize(item: tuple):
    """:func:`_specialize_one` in a worker.  The residual ships back
    serialized beside its specialization stats; one the encoding cannot
    express ships back as ``None`` with no error, and the parent
    recomputes it."""
    request_data, key, name = item
    state = _WORKER_STATE
    func, *outcome = _specialize_one(
        state["module"], request_from_dict(request_data), key, name,
        state["options"], state["snapshot"], state["store"])
    if func is not None:
        try:
            func = (function_to_dict(func),
                    getattr(func, "_weval_stats", None))
        except SerializationError:
            func = None
    return (func, *outcome)


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


@dataclasses.dataclass(slots=True)
class _Plan:
    """Mutable per-function bookkeeping while a batch is in flight
    (``request``/``key`` are ``None`` for a backend-only plan)."""

    request: Optional[SpecializationRequest]
    name: str
    key: Optional[tuple]
    func: Optional[Function] = None
    cache_hit: bool = False
    artifact_hit: bool = False
    specialized: bool = False
    dup_of: Optional[int] = None
    py_source: Optional[str] = None
    py_fallback: Optional[str] = None
    py_code: Optional[object] = None
    py_from_store: bool = False
    error: Optional[str] = None


class CompilationEngine:
    """Batch compiler for specialization requests (specialize → opt →
    verify → emit) with tiered caching, configured entirely by
    :class:`~repro.core.specialize.SpecializeOptions`."""

    def __init__(self, module: Module,
                 options: Optional[SpecializeOptions] = None,
                 cache: Optional[SpecializationCache] = None):
        self.module = module
        self.options = options or SpecializeOptions()
        self.cache = cache
        # Worker processes for stage 1; drops to 1 for the session when
        # the pool breaks twice in a row.
        self.jobs = self.options.jobs
        self.fault_plan = plan_from_options(self.options)
        self.store = _open_store(self.options)
        self.stats = EngineStats()

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

        # Stage 0: keys, in-memory probes, in-batch dedup.
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

        # Stage 1 (pure): artifact load / fresh specialize for every
        # first-occurrence miss — in the process pool when one is
        # configured and the batch can use it, else in-process (both
        # produce bit-identical residuals).
        misses = [plan for plan in plans
                  if plan.func is None and plan.dup_of is None]
        outcomes = None
        if self.jobs > 1 and len(misses) > 1:
            outcomes = self._pool_specialize_misses(misses, snapshot)
        if outcomes is None:
            outcomes = [self._specialize_local(plan, snapshot)
                        for plan in misses]
        for plan, (func, error, artifact_status, seconds) in zip(misses,
                                                                 outcomes):
            # A contained task crash fails this request and leaves every
            # sibling (and the caches) untouched.
            plan.func, plan.error = func, error
            if error is None:
                plan.artifact_hit = artifact_status == HIT
                plan.specialized = not plan.artifact_hit
            if artifact_status == INVALID:
                stats.artifact_invalid += 1
            stats.specialize_seconds += seconds

        # Resolve duplicates: clone the producer's function.
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

        # Stage 2 (pure): backend emission for every function.
        if self.options.backend == "py":
            self._emit([plan for plan in plans if plan.error is None])

        # Stage 3 (request order): cache/artifact writes and ``exec`` of
        # emitted source.  Errored plans write nothing — a crashed stage
        # must not leave partial state in the caches.
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
                    self._store_residual(plan)
            else:
                if self.cache is not None:
                    self.cache.insert(plan.key, plan.func)
                if plan.artifact_hit:
                    stats.artifact_hits += 1
                else:
                    stats.functions_specialized += 1
                    if self.store is not None:
                        self._store_residual(plan)
            results.append(self._finalize(plan))
        if self.store is not None:
            health = self.store.health()
            stats.store_write_failures = health["write_failures"]
            stats.store_degraded = 1 if health["degraded"] else 0
        stats.wall_seconds += time.perf_counter() - start
        return results

    def _store_residual(self, plan: _Plan) -> None:
        ir_text = print_function(plan.func, order="id")
        if self.store.store_residual(plan.key, plan.func, ir_text,
                                     plan.key[0], plan.key[2]):
            self.stats.artifacts_written += 1

    def _specialize_local(self, plan: _Plan, snapshot: bytes) -> tuple:
        return _specialize_one(self.module, plan.request, plan.key,
                               plan.name, self.options, snapshot, self.store)

    def _pool_specialize_misses(self, misses: List[_Plan], snapshot: bytes
                                ) -> Optional[List[tuple]]:
        """Stage 1 on a :class:`ProcessPoolExecutor`; ``None`` means
        "run it in-process" (a module or request the encoding cannot
        express, or a pool the engine just degraded away from).

        Pool-level failure containment: a broken pool (a worker
        segfaulted or was OOM-killed — surfaced by ``concurrent.futures``
        as :class:`BrokenProcessPool` at the batch boundary) is retried
        once with a fresh pool, because one dead worker is usually
        transient.  A second consecutive failure sets ``self.jobs`` to 1
        for the rest of the session: in-process stage 1 cannot crash
        independently of the parent, so tier-up keeps working instead
        of failing every batch.
        """
        try:
            module_payload = module_to_dict(self.module)
            items = [(request_to_dict(plan.request), plan.key, plan.name)
                     for plan in misses]
        except SerializationError:
            return None
        fault = self.fault_plan
        for attempt in (1, 2):
            pool = None
            try:
                if fault is not None and fault.fires("pool_worker"):
                    raise BrokenProcessPool(
                        "injected fault at seam 'pool_worker'")
                pool = ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(misses)),
                    initializer=_pool_worker_init,
                    initargs=(module_payload, self.options, snapshot))
                shipped = list(pool.map(_pool_specialize, items))
                break
            except (BrokenProcessPool, OSError):
                if attempt == 1:
                    self.stats.pool_rebuilds += 1
            finally:
                if pool is not None:
                    pool.shutdown(wait=True, cancel_futures=True)
        else:
            self.jobs = 1
            self.stats.pool_degradations += 1
            return None
        outcomes = []
        for plan, (shipped_func, error, *rest) in zip(misses, shipped):
            if shipped_func is None and error is None:
                # The worker specialized fine but could not serialize
                # the residual back; recompute this one plan locally.
                outcomes.append(self._specialize_local(plan, snapshot))
                continue
            func = None
            if shipped_func is not None:
                payload, spec_stats = shipped_func
                func = function_from_dict(payload, name=plan.name)
                if spec_stats is not None:
                    func._weval_stats = spec_stats
            outcomes.append((func, error, *rest))
        return outcomes

    def _emit(self, plans: List[_Plan]) -> None:
        """Stage 2: backend source and code object for each plan.  A
        crash fails that plan only (``plan.error``)."""
        stats = self.stats
        for plan in plans:
            begin = time.perf_counter()
            try:
                (plan.py_source, plan.py_fallback, plan.py_code,
                 status) = self._emit_one(plan.func)
            except Exception as exc:
                plan.error, status = f"{type(exc).__name__}: {exc}", MISS
            plan.py_from_store = status == HIT
            if status == INVALID:
                stats.artifact_invalid += 1
            stats.emit_seconds += time.perf_counter() - begin

    def _emit_one(self, func: Function
                  ) -> Tuple[Optional[str], Optional[str], Optional[object],
                             str]:
        """Emit (or warm-load) backend source for one residual function.

        Returns ``(source, fallback_reason, code, store_status)``.

        ``code`` is the tier-3½ rung: the ``compile()``d code object for
        ``source``, unmarshaled from the artifact store (a warm start
        skips parse+compile entirely) or compiled here, so the ``exec``
        in :meth:`_finalize` only binds globals.  ``None`` (any marshal
        or interpreter skew in the store) means "compile from source".
        """
        from repro.backend import UnsupportedConstruct, emit_function_source
        fp = None
        if self.store is not None:
            fp = residual_fingerprint(print_function(func, order="id"))
            cached, status = self.store.load_py_source(fp)
            if cached is not None:
                return cached[0], cached[1], cached[2], status
        if self.fault_plan is not None:
            self.fault_plan.check("emit")
        try:
            source, _mode_used, _emitter = emit_function_source(
                func, self.module)
            code, code_bytes = self._precompile(func.name, source)
            fallback = None
        except UnsupportedConstruct as exc:
            source, fallback, code, code_bytes = None, str(exc), None, None
        if self.store is not None:
            self.store.store_py_source(fp, source, fallback,
                                       code_bytes=code_bytes)
        return source, fallback, code, MISS

    @staticmethod
    def _precompile(name: str, source: str) -> Tuple[Optional[object],
                                                     Optional[bytes]]:
        """``compile()`` emitted source ahead of stage 3.

        The filename matches ``compile_python_source`` exactly so
        tracebacks are identical on both paths.  A source CPython
        refuses (``SyntaxError`` — a property of the text) is the
        fallback verdict in ``compile_python_source``'s words, raised
        here where it is first learned so it is stored and no later
        stage or warm start compiles the text again.  Any other failure
        (recursion depth, memory — properties of the moment) returns
        ``(None, None)`` and stage 3 recompiles.
        """
        from repro.backend import UnsupportedConstruct
        try:
            code = compile(source, f"<pybackend:{name}>", "exec")
            return code, marshal.dumps(code)
        except SyntaxError as exc:
            raise UnsupportedConstruct(
                f"{name}: emitted source does not compile: {exc}") from exc
        except Exception:
            return None, None

    def _finalize(self, plan: _Plan) -> EngineResult:
        """Turn a finished plan into a result; ``exec`` emitted source
        (callable identity is created in request order)."""
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
        """Emit + compile module functions to Python callables through
        stage 2 and :meth:`_finalize`, artifact-store reuse included.

        Returns ``(compiled, fallbacks)``: name to callable, and
        ``(name, reason)`` for each function left to the IR VM.
        """
        start = time.perf_counter()
        stats = self.stats
        compiled: Dict[str, Callable] = {}
        fallbacks: List[Tuple[str, str]] = []
        plans: List[_Plan] = []
        for name in names:
            func = self.module.functions.get(name)
            if func is None:
                fallbacks.append((name, "not an IR function"))
                stats.backend_fallbacks += 1
            else:
                plans.append(_Plan(None, name, None, func))
        self._emit(plans)
        for plan in plans:
            if plan.error is not None:
                # Contained emit crash.  Deliberately *neither* compiled
                # nor a fallback: a fallback is the permanent
                # "emitter cannot express this" verdict, while a crash
                # is transient — leaving the name out of both tells the
                # tiering controller to quarantine and retry.
                stats.requests_failed += 1
                continue
            result = self._finalize(plan)
            if result.pyfunc is not None:
                compiled[plan.name] = result.pyfunc
            else:
                fallbacks.append((plan.name, result.fallback_reason))
        stats.wall_seconds += time.perf_counter() - start
        return compiled, fallbacks
