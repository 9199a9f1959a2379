"""mini-C: a small systems language compiled to :mod:`repro.ir`.

The paper applies weval to interpreters written in C/C++ and compiled to
WebAssembly.  Our stand-in is mini-C: a C-flavoured language with
``u64``/``f64`` scalars, local arrays on a shadow stack, explicit memory
builtins (``load64``/``store64``/...), ``extern`` host functions,
structured control flow including ``switch``, and the full set of
``weval_*`` intrinsics.  Interpreter listings in this repository look
essentially like the paper's Fig. 1 and Fig. 9.

Public API::

    program = compile_source(source_text)
    program.add_to_module(module)     # adds functions + imports + globals

    # A guest runtime's interpreter: compiled once per process, frozen,
    # and shared by reference between modules (repro.frontend.image).
    interpreter_image(source_text, compile_source).add_to_module(module)
"""

from repro.frontend.errors import CompileError
from repro.frontend.compiler import CompiledProgram, compile_source
from repro.frontend.image import interpreter_image

__all__ = ["CompileError", "CompiledProgram", "compile_source",
           "interpreter_image"]
