"""In-memory span recorder for the ledger's ``--trace`` run.

Spans are recorded from *outside* the program: :meth:`Recorder.install`
wraps the functions each layer is entered through (the names the engine
itself calls, so a span is the engine's own work, not a re-enactment)
and :meth:`Recorder.uninstall` puts the originals back.  Nothing under
``src/`` knows about this file; a hook whose target a later change
renamed is counted in ``trace.hooks_missing`` instead of failing the
run, so the benchmark keeps running across refactors and says what it
lost.

A span is ``[name, start, end, parent_index, request_id]``; a layer's
self time is its spans' duration minus the part their direct children
cover.  The Chrome trace-event form is written once, at exit.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Dict, List, Optional, Tuple

# (module, dotted attribute, span name).  The attribute is looked up on
# the module that *calls* it, because ``from x import f`` binds a copy.
HOOKS: List[Tuple[str, str, str]] = [
    ("repro.jsvm.runtime", "compile_source", "frontend.compile_source"),
    ("repro.luavm.runtime", "compile_source", "frontend.compile_source"),
    ("repro.min.fleet", "compile_source", "frontend.compile_source"),
    ("repro.jsvm.runtime", "compile_js", "jsvm.frontend.compile_js"),
    ("repro.luavm.runtime", "compile_lua", "luavm.compiler.compile_lua"),
    ("repro.pipeline.engine", "request_key", "core.cache.request_key"),
    ("repro.pipeline.engine", "specialize", "core.specialize"),
    ("repro.opt.pipeline", "optimize_function", "opt.optimize_function"),
    ("repro.pipeline.engine", "verify_function", "ir.verifier"),
    ("repro.pipeline.engine", "print_function", "ir.printer"),
    ("repro.backend", "emit_function_source", "backend.emit"),
    ("repro.backend", "compile_python_source", "backend.pycompile"),
    ("repro.pipeline.engine", "CompilationEngine._precompile",
     "backend.pycompile"),
    ("repro.pipeline.engine", "CompilationEngine.compile_batch",
     "pipeline.engine.batch"),
    ("repro.pipeline.engine",
     "CompilationEngine.compile_backend_functions",
     "pipeline.engine.batch"),
    ("repro.pipeline.artifacts", "ArtifactStore.store_residual",
     "pipeline.artifacts.write_residual"),
    ("repro.pipeline.artifacts", "ArtifactStore.store_py_source",
     "pipeline.artifacts.write_py"),
    ("repro.pipeline.artifacts", "ArtifactStore.load_residual",
     "pipeline.artifacts.read_residual"),
    ("repro.pipeline.artifacts", "ArtifactStore.load_py_source",
     "pipeline.artifacts.read_py"),
    ("repro.pipeline.tiering", "TieringController.promote_all",
     "pipeline.tiering.promote_all"),
    ("repro.pipeline.tiering", "TieringController.adopt_heat",
     "pipeline.profiles.adopt"),
    ("repro.pipeline.tiering", "TieringController.publish_heat",
     "pipeline.profiles.publish"),
    ("repro.core.snapshot", "SnapshotCompiler.resume",
     "vm.machine.resume"),
]


class Recorder:
    """Span store plus the open-span stack (one thread: ``jobs=1``)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request: Optional[str] = None
        self.hooks_missing = 0
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        span = [name, time.perf_counter(), None,
                self.stack[-1] if self.stack else -1, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    # ------------------------------------------------------------------
    def install(self) -> None:
        for module_name, path, span_name in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.hooks_missing += 1
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(span_name, raw.__func__))
            else:
                wrapped = self.wrap(span_name, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_ms`` and ``self_ms``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_time[index]) * 1e3
        return out

    def write_chrome_trace(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "args": {"span": index, "parent": parent,
                            "request": request}}
                  for index, (name, start, end, parent, request)
                  in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
