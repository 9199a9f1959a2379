"""The Wizer-style snapshot workflow (S3.5, S6).

The paper integrates weval "from the inside": the runtime enqueues
specialization requests while it initializes (parses source, creates
bytecode), a snapshot of the heap is taken, weval processes the requests
and appends new functions to the module, function pointers in the heap
are patched, and execution resumes from the snapshot.

:class:`SnapshotCompiler` reproduces that life-cycle:

1. ``instantiate()`` — create a VM over the module;
2. run the guest's init export on that VM (the ``wizer_init`` analog;
   it may call host functions that in turn call :meth:`enqueue`);
3. ``process_requests()`` — hand the whole batch to the
   :class:`~repro.pipeline.engine.CompilationEngine` (which specializes
   through the on-disk artifact store when ``options.cache_dir`` names
   one), then — in request order — append each function to the module,
   register it in the function table, and patch the 64-bit result slot
   in the heap with the table index; a request the engine could not
   compile applies nothing (a failed emit on the py backend included),
   and a tier-2 callable is kept by name in ``backend_functions`` — the
   helpers a compiled residual calls by name
   (``CompilationEngine.compile_helpers``) go in with it;
4. ``freeze()`` — make the heap the module's initial memory: its
   non-zero pages are indexed and only those are kept;
5. ``resume()`` — a fresh VM starting from the snapshot (a private
   mapping that copies the indexed pages and nothing else), where the
   runtime finds its function pointers filled in and calls specialized
   code via ``call_indirect``; on the py backend it first compiles
   whatever ``compile_backend()`` has not compiled yet (idempotent by
   membership in ``backend_functions``), then installs every residual and
   helper in ``backend_functions``, so a guest call runs compiled →
   compiled once its link slots patch.  Helpers are found when a batch
   compiles, never by ``resume()``: a second resume finds nothing to
   compile and searches nothing.

Every guest runtime reaches this class through
:mod:`repro.pipeline.host`; engine configuration is said once, on
:class:`~repro.core.specialize.SpecializeOptions` (``cache_dir``,
``backend``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.request import SpecializationRequest
from repro.core.specialize import SpecializeOptions
from repro.core.stats import SpecializationStats
from repro.ir.module import Module
from repro.vm.machine import VM


@dataclasses.dataclass
class ProcessedRequest:
    request: SpecializationRequest
    function_name: str
    table_index: int
    result_addr: int
    artifact_hit: bool = False  # residual loaded from the on-disk store
    # Fault containment: a request whose compile crashed.  The module,
    # table, and heap were left untouched (table_index is -1) — the
    # guest keeps calling whatever the slot already held, i.e. tier 0.
    error: Optional[str] = None
    # Helpers first compiled for this request, installed with it.
    helpers: Dict[str, Callable] = dataclasses.field(default_factory=dict)


class SnapshotCompiler:
    """Drives the enqueue -> snapshot -> specialize -> resume workflow."""

    def __init__(self, module: Module,
                 options: Optional[SpecializeOptions] = None):
        from repro.pipeline.engine import CompilationEngine
        self.module = module
        self.options = options or SpecializeOptions()
        self.engine = CompilationEngine(module, self.options)
        self.vm: Optional[VM] = None
        self.pending: List[Tuple[SpecializationRequest, int]] = []
        self.processed: List[ProcessedRequest] = []
        self.total_stats = SpecializationStats()
        # Tier-2 callables, filled by the engine's one emit body: in the
        # batch when ``options.backend == "py"``, else lazily by
        # compile_backend.
        self.backend_functions: Dict[str, Callable] = {}

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def instantiate(self) -> VM:
        if self.vm is None:
            self.vm = VM(self.module)
        return self.vm

    def enqueue(self, request: SpecializationRequest,
                result_addr: int) -> None:
        """Queue a request; ``result_addr`` is the heap address of the
        64-bit slot to be patched with the new function's table index."""
        self.pending.append((request, result_addr))

    def process_requests(self) -> List[ProcessedRequest]:
        """Compile all pending requests against the current heap and
        apply the results (module mutation, table registration, heap
        patching) in request order."""
        vm = self.instantiate()
        snapshot = bytes(vm.memory)
        taken: Set[str] = set()
        batch: List[Tuple[SpecializationRequest, int]] = []
        for request, result_addr in self.pending:
            name = self._unique_name(request, taken)
            taken.add(name)
            batch.append((dataclasses.replace(request,
                                              specialized_name=name),
                          result_addr))

        results = self.engine.compile_batch([req for req, _ in batch],
                                            snapshot)

        processed = []
        for (request, result_addr), result in zip(batch, results):
            if result.error is not None:
                # Contained compile failure: apply *nothing* for this
                # request — no module mutation, no table slot, no heap
                # patch — so the guest's function pointer still names
                # the generic tier-0 path.  Sibling requests in the
                # same batch are applied normally.
                processed.append(ProcessedRequest(
                    request, request.name(), -1, result_addr,
                    error=result.error))
                continue
            func = result.function
            stats = getattr(func, "_weval_stats", None)
            if stats is not None:
                self.total_stats.merge(stats)
            self.module.add_function(func)
            index = self.module.add_table_entry(func.name)
            vm.store_u64(result_addr, index)
            if result.pyfunc is not None:
                self.backend_functions[func.name] = result.pyfunc
                self.backend_functions.update(result.helpers)
            processed.append(ProcessedRequest(
                request, func.name, index, result_addr,
                result.artifact_hit, helpers=result.helpers))
        self.processed.extend(processed)
        self.pending = []
        return processed

    def _unique_name(self, request: SpecializationRequest,
                     taken: Set[str] = frozenset()) -> str:
        base = request.name()
        if not self.module.has_function(base) and base not in taken:
            return base
        counter = 1
        while self.module.has_function(f"{base}.{counter}") or \
                f"{base}.{counter}" in taken:
            counter += 1
        return f"{base}.{counter}"

    def freeze(self) -> Module:
        """Make the live heap the module's initial memory (the snapshot
        itself); the VM keeps its own heap."""
        vm = self.instantiate()
        self.module.freeze_image(vm.memory)
        self.module.globals.update(vm.globals)
        return self.module

    def compile_backend(self,
                        names: Optional[List[str]] = None
                        ) -> Dict[str, Callable]:
        """Compile residual functions to Python callables (tier 2).

        ``names`` defaults to every processed specialization.  Idempotent
        by membership: a name already compiled is not attempted again,
        so the result holds only what this call compiled — the helpers
        those functions were the first to need included, recorded in
        ``backend_functions`` too.  A name whose emit failed is left
        out (it stays on the IR VM) and is attempted again by the next
        call.  Delegates to the engine, so emitted source persists in
        the artifact store.
        """
        if names is None:
            names = [p.function_name for p in self.processed
                     if p.error is None]
        compiled = self.engine.compile_backend_functions(
            [n for n in names if n not in self.backend_functions])
        self.backend_functions.update(compiled)
        return compiled

    def resume(self, backend: Optional[str] = None) -> VM:
        """A fresh VM resuming from the frozen snapshot.

        ``backend`` overrides ``options.backend`` for this VM: ``"py"``
        attaches the compiled residual functions and their helpers
        (compiling them on first use), ``"vm"`` interprets the IR, each
        body read first (:meth:`read_bodies`).
        """
        vm = VM(self.module)
        if (backend or self.options.backend) == "py":
            self.compile_backend()
            vm.install_compiled(self.backend_functions)
        else:
            self.read_bodies()
        return vm

    def read_bodies(self) -> None:
        """Read the body of every residual still held as its stored text
        before the IR VM runs it (a code hit on the py backend reads
        none, :class:`~repro.pipeline.artifacts.StoredResidual`); a body
        that fails that read is specialized again
        (:meth:`~repro.pipeline.engine.CompilationEngine.read_body`)."""
        for item in self.processed:
            if item.error is None:
                self.engine.read_body(
                    self.module.functions[item.function_name], item.request)
