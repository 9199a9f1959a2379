"""The compilation engine: one record per request, two walks, one emit body.

:class:`CompilationEngine` is the paper's straight-line compile path
(S3.5: enqueue, snapshot, specialize each request, append, patch,
resume) over its one cache (S6.5), the **persistent on-disk artifact
store** (``SpecializeOptions(cache_dir=...)``,
:mod:`repro.pipeline.artifacts`), keyed by
:func:`~repro.core.cache.request_key`: residual IR and emitted backend
source survive process exit, a warm restart compiles zero functions, and
fingerprint mismatches / version skew / corruption silently fall back to
a fresh compile.

* **One record.**  :meth:`~CompilationEngine.compile_batch` makes one
  :class:`EngineResult` per request up front and fills it in place; the
  caller's module mutation / table registration / heap patching follows
  the same request order.
* **Two walks**, both in request order.  Walk 1 gives every request its
  residual: it loads it from the store — **verified before its first
  read; a code hit reads none** — or specializes it fresh
  (:meth:`~CompilationEngine._load_or_specialize`).  The store is the
  one cache: two requests of one key in one batch are two independent
  requests, each loads or specializes, and both write the same
  (deterministic) residual.  The artifact file is outside the process's
  trust boundary, so a body that does not parse or that the verifier
  rejects is treated exactly like corruption.  On the py backend a
  residual whose ``py/`` entry holds a code object for this interpreter
  stays text (:class:`~repro.pipeline.artifacts.StoredResidual`): that
  code, keyed by the sha256 of this exact text, is all that runs, so the
  body is parsed and verified only if something reads it — the IR VM
  (:meth:`~CompilationEngine.read_body`), inline planning, a re-emit.
  Every other load (the VM backend, a source-only entry, a ``py/`` miss,
  a stored name that is not the request's) is read at once.  Walk 2
  emits when the backend is ``"py"``, counts the hit and writes a fresh
  residual to the store, printing it once for both.  Two walks and not
  one because it was measured: with load / specialize and emission
  interleaved per request the warm path lost its working set
  (``store_warm`` ``compile_ms`` +3.7%, higher in 7 of 7 alternating
  pairs); all residuals first, all emission second reads level.
* **One emit body.**  :meth:`~CompilationEngine._emit` is the only code
  that turns a residual into a callable — warm-load from ``py/`` or
  emit, ``compile()``, store, then ``exec`` — and both roads to tier 2
  run it: walk 2, and
  :meth:`~CompilationEngine.compile_backend_functions` for functions
  already in the module (staged tier-up, ``resume(backend="py")``).
  An emit that fails at any step is ``EngineResult.error``, contained
  like a specialize crash and never remembered.
* **Helpers ride with the residual that needs them.**  A *helper* is a
  module function that compiled code reaches through a direct ``call``
  (the closure: a helper's own direct callees count), that is not an
  import and that has no retreating edge — in the tree today that is
  MiniLua's ``lua_call`` trampoline, and nothing else: the generic
  interpreters all loop.  No loop is the rule because ``VM._eval`` is
  the only code that counts ``stats.backedges``, which promotion scores
  read; a loop-free function has nothing to count, so running it
  compiled is identical to ``_eval`` for profiling as well as for fuel,
  prints and traps.  Both roads to tier 2 call
  :meth:`~CompilationEngine.compile_helpers` on each function they
  compile, and it emits each helper through ``_emit`` (the ``py/``
  store is reused, a warm start emits nothing), memoized per engine by
  name, so helpers are found once per batch and never per run.  A
  helper is **not a request**: it touches none of the request counters
  (``requests``, ``backend_emitted``, ``backend_source_hits``,
  ``backend_code_hits``, ``requests_failed``), only
  ``EngineStats.helpers``, and a helper whose emit fails stays on the IR
  VM — speed, never results, and the request that needed it still
  succeeds.
"""

from __future__ import annotations

import dataclasses
import marshal
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.cache import request_key
from repro.core.request import SpecializationRequest
from repro.core.specialize import SpecializeOptions, specialize
from repro.core.stats import EngineStats
from repro.ir.cfg import retreating_edges
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.parser import IRParseError, direct_callees
from repro.ir.printer import print_function
from repro.ir.verifier import VerificationError, verify_function
from repro.pipeline.artifacts import (
    INVALID,
    ArtifactStore,
    StoredResidual,
    residual_fingerprint,
    unread,
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


@dataclasses.dataclass
class EngineResult:
    """Outcome of one request in a batch, in request order.

    Exactly one of ``artifact_hit`` / ``specialized`` is true for a
    request that got its function.  ``pyfunc`` is populated when the
    engine's backend is ``"py"``.

    ``error`` is the fault-containment surface: an exception anywhere in
    this request's pipeline (specialize, verify, emit) fails *this
    result only* — nothing was stored for it, and the rest of the batch
    is unaffected.  Callers must treat an errored result as "stay on
    the current tier"; the tiering controller turns it into quarantine.

    ``request`` is ``None`` for a function already in the module
    (:meth:`CompilationEngine.compile_backend_functions`).  ``helpers``
    holds the helpers this request's callable was the first to need
    (:meth:`CompilationEngine.compile_helpers`), to be installed with it.
    """

    request: Optional[SpecializationRequest]
    function: Optional[Function]
    artifact_hit: bool = False
    specialized: bool = False
    pyfunc: Optional[Callable] = None
    error: Optional[str] = None
    helpers: Dict[str, Callable] = dataclasses.field(default_factory=dict)
    # The residual's id-order text once something needed it (the ``py/``
    # key hashes it and the residual write stores it: printed once), and
    # walk 1's read of the ``py/`` entry it keys, as ``(fingerprint,
    # entry)``, when walk 1 had to look.
    text: Optional[str] = None
    py_entry: Optional[tuple] = None


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
        # Callee names compile_helpers has judged (helper or not).
        self._judged: Set[str] = set()

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
        snapshot = bytes(snapshot if snapshot is not None
                         else self.module.memory_init)
        stats = self.stats
        stats.requests += len(requests)
        stats.inline_requests += sum(
            1 for r in requests if getattr(r, "inline_plan", ()))
        results = [EngineResult(request, None) for request in requests]
        keys = [request_key(self.module, request, self.options, snapshot)
                for request in requests]
        emit = self.options.backend == "py"

        # Walk 1: a residual for every request.  A specialize / verify
        # crash fails that request only.
        for result, key in zip(results, keys):
            self._load_or_specialize(result, key, snapshot)

        # Walk 2: emission, hit accounting, residual write.  A second
        # walk rather than the tail of the first, because interleaving
        # the two phases per request measured slower on the warm path
        # (module docstring).  A failed emit fails its own request only,
        # and an errored request writes nothing.
        for result, key in zip(results, keys):
            if emit and result.error is None:
                self._emit(result)
                if result.error is None:
                    result.helpers = self.compile_helpers(result.function)
            if result.error is not None:
                stats.requests_failed += 1
            elif result.artifact_hit:
                stats.artifact_hits += 1
            else:
                stats.functions_specialized += 1
                if self.store is not None and self.store.store_residual(
                        key, result.text
                        or print_function(result.function, order="id"),
                        key[0], key[2]):
                    stats.artifacts_written += 1
        if self.store is not None:
            health = self.store.health()
            stats.store_write_failures = health["write_failures"]
            stats.store_degraded = 1 if health["degraded"] else 0
        return results

    def _load_or_specialize(self, result: EngineResult, key: tuple,
                            snapshot: bytes) -> None:
        """Walk 1 for one request: artifact load, else fresh specialize.
        A loaded residual may stay text (:meth:`_take_stored`).  Any
        exception (injected ``specialize`` / ``verify`` faults included)
        is contained here as ``result.error`` with no function: one
        poisoned request fails, never the batch."""
        request, fault = result.request, self.fault_plan
        func = None
        try:
            if self.store is not None:
                stored, status = self.store.load_residual(
                    key, key[0], key[2], self.module, self._verify)
                if stored is not None:
                    func = self._take_stored(result, stored)
                    if func is None:
                        status = INVALID
                if status == INVALID:
                    self.stats.artifact_invalid += 1
            result.artifact_hit = func is not None
            if func is None:
                if fault is not None:
                    fault.check("specialize")
                func = specialize(self.module, request, self.options,
                                  snapshot)
                if fault is not None:
                    fault.check("verify")
                result.specialized = True
            result.function = func
        except Exception as exc:
            result.error = f"{type(exc).__name__}: {exc}"

    def _verify(self, func: Function) -> None:
        verify_function(func, self.module)

    def _take_stored(self, result: EngineResult, stored: StoredResidual
                     ) -> Optional[Function]:
        """A loaded residual as walk 1 keeps it, or ``None`` when it is
        corrupt.

        It stays text when the backend is py, its header names the
        request, and its text's ``py/`` entry holds a code object for
        this interpreter: that code, keyed by the sha256 of this exact
        text, is then all that runs.  Otherwise the body is read now, exactly as an eager load
        reads it — the store is outside the process's trust boundary,
        so text that does not parse, or that the verifier rejects, is
        treated like corruption.
        """
        name = result.request.name()
        if stored.name == name:
            result.text = stored.text  # its print: nothing to re-print
            if self.options.backend == "py":
                fp = residual_fingerprint(stored.text)
                cached = self._load_py(fp)
                result.py_entry = fp, cached
                if cached is not None and cached[1] is not None:
                    return stored
        try:
            return stored.parsed(name)
        except (IRParseError, VerificationError):
            result.text = result.py_entry = None
            return None

    def read_body(self, func: Function,
                  request: SpecializationRequest) -> None:
        """Read ``func``'s body now if it is still stored text, because
        the IR VM is about to run it.  A body whose first read fails
        (text that does not parse or verify, or an injected ``body``
        fault) takes the path a rejected load takes: ``request`` is
        specialized again, against the module's image, and the fresh
        body becomes ``func``'s, so the module, the table and the
        patched heap slot still name it."""
        if not unread(func):
            return
        try:
            func.read_body()
        except Exception:
            self.stats.artifact_invalid += 1
            self.stats.functions_specialized += 1
            func.take_body(specialize(self.module, request, self.options,
                                      bytes(self.module.memory_init)))

    def _load_py(self, fp: str):
        """The ``py/`` entry for residual fingerprint ``fp``, or ``None``;
        an unusable entry counts as invalid."""
        cached, status = self.store.load_py_source(fp)
        if status == INVALID:
            self.stats.artifact_invalid += 1
        return cached

    def _emit(self, result: EngineResult, helper: bool = False) -> None:
        """The one emission body: ``result.function`` becomes
        ``result.pyfunc``, or ``result.error`` when any step failed —
        emit, ``compile()`` (a refused source is never stored), the
        store, ``exec``.  A ``helper`` is not a request and leaves the
        request counters alone.

        The source and its ``compile()``d code object come from the
        artifact store when it has them (a warm start skips emit, parse
        and compile: the ``exec`` below only binds globals) and are
        emitted, compiled and stored here otherwise; a stored code
        object of ``None`` (marshal or interpreter skew) means "compile
        from source".  The ``py/`` key hashes the residual's id-order
        text: the one walk 1 loaded, or else its print, made once.
        """
        from repro import backend
        func, stats = result.function, self.stats
        try:
            fp = cached = None
            if result.py_entry is not None:
                fp, cached = result.py_entry
            elif self.store is not None:
                if result.text is None:
                    result.text = func.text if unread(func) \
                        else print_function(func, order="id")
                fp = residual_fingerprint(result.text)
                cached = self._load_py(fp)
            if cached is not None:
                source, code = cached
            else:
                if self.fault_plan is not None:
                    self.fault_plan.check("emit")
                source = backend.emit_function_source(func, self.module)[0]
                code, code_bytes = self._precompile(func.name, source)
                if self.store is not None:
                    self.store.store_py_source(fp, source,
                                               code_bytes=code_bytes)
            result.pyfunc = backend.compile_python_source(
                func.name, source, code=code)
        except Exception as exc:
            result.error = f"{type(exc).__name__}: {exc}"
            return
        if helper:
            return
        if cached is None:
            stats.backend_emitted += 1
        else:
            stats.backend_source_hits += 1
            if code is not None:
                stats.backend_code_hits += 1

    @staticmethod
    def _precompile(name: str, source: str) -> Tuple[object, bytes]:
        """``compile()`` emitted source before it is stored, and marshal
        the code for the ``py/`` entry; the filename is
        ``compile_python_source``'s, so tracebacks match."""
        code = compile(source, f"<pybackend:{name}>", "exec")
        return code, marshal.dumps(code)

    # ------------------------------------------------------------------
    # Backend-only compilation (tier-up of functions already in the
    # module, e.g. ``SnapshotCompiler.compile_backend`` after a
    # ``backend="vm"`` specialization run).
    # ------------------------------------------------------------------
    def compile_backend_functions(self, names: List[str]
                                  ) -> Dict[str, Callable]:
        """Compile module functions to Python callables through
        :meth:`_emit`, artifact-store reuse included.

        Returns name to callable, the helpers the compiled functions
        were the first to need included.  A name that is not an IR
        function, or whose emit failed, is left out and counted in
        ``requests_failed``.
        """
        compiled: Dict[str, Callable] = {}
        for name in names:
            func = self.module.functions.get(name)
            result = EngineResult(None, func)
            if func is not None:
                self._emit(result)
            if result.pyfunc is None:
                self.stats.requests_failed += 1
                continue
            compiled[name] = result.pyfunc
            compiled.update(self.compile_helpers(func))
        return compiled

    # ------------------------------------------------------------------
    # Helpers: the loop-free functions compiled code calls by name.
    # ------------------------------------------------------------------
    def compile_helpers(self, func: Function) -> Dict[str, Callable]:
        """Compile the helpers compiled ``func`` reaches (module
        docstring) that this engine has not judged yet; returns name to
        callable for those that reached tier 2.  Each callee name is
        judged once per engine, a refusal or a crash included."""
        compiled: Dict[str, Callable] = {}
        judged = self._judged
        work = [func]
        while work:
            for name in self._direct_callees(work.pop()):
                if name in judged:
                    continue
                judged.add(name)
                # Imports are not module functions: ``None`` here.  A
                # residual still held as text has its own code already.
                callee = self.module.functions.get(name)
                if callee is None or unread(callee) \
                        or retreating_edges(callee):
                    continue
                result = EngineResult(None, callee)
                self._emit(result, helper=True)
                if result.pyfunc is not None:
                    compiled[name] = result.pyfunc
                    self.stats.helpers += 1
                    work.append(callee)
        return compiled

    @staticmethod
    def _direct_callees(func: Function) -> List[str]:
        """The names ``func`` calls directly, in block order — read from
        the text of a residual whose body is still text."""
        if unread(func):
            return direct_callees(func.text)
        return [instr.imm for block in func.blocks.values()
                for instr in block.instrs if instr.op == "call"]
