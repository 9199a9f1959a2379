"""The tiered compilation engine: one subsystem for every AOT flow.

The :class:`CompilationEngine` owns the whole tier-up path:

* it accepts **batches** of
  :class:`~repro.core.request.SpecializationRequest`\\s and runs them
  through four stages — keys and in-batch dedup, specialize (which
  includes the verifying mid-end), backend emission, and the
  order-sensitive tail (hit accounting, artifact writes, ``exec`` of
  emitted code) — each in **request order**; the caller's module
  mutation / table registration / heap patching follows the same order;
* its one cache is the **persistent on-disk artifact store**
  (``SpecializeOptions(cache_dir=...)``,
  :mod:`repro.pipeline.artifacts`), keyed by
  :func:`~repro.core.cache.request_key`: residual IR and emitted backend
  source survive process exit, a warm restart compiles zero functions,
  and fingerprint mismatches / version skew / corruption silently fall
  back to a fresh compile;
* residuals loaded from disk are **verified** before use (the artifact
  file is outside the process's trust boundary; a verifier rejection is
  treated exactly like corruption).

There is **one stage-1 body**, :func:`_specialize_one` (artifact load →
verify → else ``specialize``, faults and containment included), and the
engine calls it in-process, once per distinct key in the batch.
"""

from __future__ import annotations

import dataclasses
import marshal
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cache import request_key
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


def _open_store(options: SpecializeOptions) -> Optional[ArtifactStore]:
    """The artifact store ``options.cache_dir`` names, if any.  An
    uncreatable directory (read-only image, path collision) degrades to
    "no cache", never to a failed build — matching the store's own
    write behavior."""
    if not options.cache_dir:
        return None
    try:
        return ArtifactStore(options.cache_dir,
                             fault_plan=options.fault_plan)
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
    function: one poisoned request fails in stage 3, never the batch.
    """
    fault = options.fault_plan
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


@dataclasses.dataclass
class EngineResult:
    """Outcome of one request in a batch, in request order.

    Exactly one of ``artifact_hit`` / ``specialized`` is true for the
    request that *produced* the function; a duplicate request in the
    same batch reuses the producer's *residual* (one specialize run) and
    is the ``cache_hit`` — backend source is still emitted per request,
    because the emitted code embeds the unique function name in its
    trap messages.  ``pyfunc``/``py_source`` are populated when the
    engine's backend is ``"py"``; ``fallback_reason`` records a residual
    the emitter cannot express (it stays on the IR VM).

    ``error`` is the fault-containment surface: an exception anywhere in
    this request's pipeline (specialize, verify, emit) fails *this
    result only* — ``function`` is ``None``, nothing was stored for it,
    and the rest of the batch is unaffected.  Callers must treat an
    errored result as "stay on the current tier"; the tiering controller
    turns it into quarantine.
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
    verify → emit) over the artifact store, configured entirely by
    :class:`~repro.core.specialize.SpecializeOptions`."""

    def __init__(self, module: Module,
                 options: Optional[SpecializeOptions] = None):
        self.module = module
        self.options = options or SpecializeOptions()
        self.fault_plan = self.options.fault_plan
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

        # Stage 0: keys and in-batch dedup.
        plans: List[_Plan] = []
        first_of_key: Dict[tuple, int] = {}
        for request in requests:
            plan = _Plan(request, request.name(),
                         request_key(self.module, request, self.options,
                                     snapshot))
            # Same key seen earlier in this batch: reuse its output.
            plan.dup_of = first_of_key.get(plan.key)
            if plan.dup_of is None:
                first_of_key[plan.key] = len(plans)
            plans.append(plan)

        # Stage 1 (pure): artifact load / fresh specialize for every
        # first occurrence of a key.
        for plan in plans:
            if plan.dup_of is not None:
                continue
            # A contained crash fails this request and leaves every
            # sibling (and the store) untouched.
            plan.func, plan.error, artifact_status, seconds = \
                _specialize_one(self.module, plan.request, plan.key,
                                plan.name, self.options, snapshot,
                                self.store)
            if plan.error is None:
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

        # Stage 2 (pure): backend emission for every function.
        if self.options.backend == "py":
            self._emit([plan for plan in plans if plan.error is None])

        # Stage 3 (request order): artifact writes and ``exec`` of
        # emitted source.  Errored plans write nothing — a crashed stage
        # must not leave partial state in the store.
        results = []
        for plan in plans:
            if plan.error is not None:
                stats.requests_failed += 1
            elif plan.cache_hit:
                stats.cache_hits += 1
            elif plan.artifact_hit:
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
