"""The tier-2 backend: residual IR compiled to native Python functions.

After the weval transform (and the mid-end) has produced residual IR,
the remaining cost of running it on :class:`repro.vm.machine.VM` is pure
interpretive overhead.  :class:`StructuredEmitter` — the one emitter —
removes that tier: it translates a verified function into Python source,
``compile()``s it, and the VM dispatches to the resulting callable on
``call`` / ``call_indirect`` exactly as it would an IR function.

Select the backend with ``SpecializeOptions(backend="py")`` (or per run,
``run_aot(backend="py")``).  The emitter is total on verified IR; an
emit that fails anyway is a contained compile failure of that one
request (``EngineResult.error`` in :mod:`repro.pipeline.engine`), and
the function keeps running on a lower tier.
"""

from repro.backend.emitter import (
    BackendError,
    StructuredEmitter,
    compile_python_source,
    emit_function_source,
)
from repro.backend.runtime import BACKEND_GLOBALS

__all__ = [
    "BackendError",
    "StructuredEmitter",
    "compile_python_source",
    "emit_function_source",
    "BACKEND_GLOBALS",
]
