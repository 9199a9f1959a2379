"""The interpreter image: each interpreter is compiled once per process.

In the paper the interpreter is compiled once, offline, and every
specialization starts from that snapshot.  The mini-C text of an
interpreter does not depend on the guest program either, so the first
runtime built from a text pays the frontend (lex, parse, lower) and
every later one registers the *same* ``Function`` objects in its module,
by reference.  Those functions are frozen (see
:class:`~repro.ir.function.Function`): they carry the fingerprint of
their body, and with ``REPRO_OPT_VERIFY=1``
:meth:`~repro.frontend.compiler.CompiledProgram.add_to_module` checks it
again on every registration.

:func:`~repro.frontend.compiler.compile_source` itself is not memoized:
its callers own what it returns and may optimize it in place.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import threading
import types
from typing import Callable

from repro.core.cache import body_fingerprint
from repro.frontend.compiler import CompiledProgram


# Programs a memo keeps; the runtimes in this tree use seven texts.
_CAP = 8


class ImageMemo:
    """Frozen programs by the sha256 of their text; least recently used
    beyond ``_CAP`` is dropped."""

    def __init__(self):
        self._lock = threading.Lock()
        self._programs: "collections.OrderedDict[str, CompiledProgram]" = \
            collections.OrderedDict()
        self._builds = 0
        self._hits = 0

    @property
    def builds(self) -> int:
        """Frontend compiles performed (misses)."""
        return self._builds

    @property
    def hits(self) -> int:
        return self._hits

    def __len__(self) -> int:
        return len(self._programs)

    def get(self, text: str,
            compile: Callable[[str], CompiledProgram]) -> CompiledProgram:
        digest = hashlib.sha256(text.encode()).hexdigest()
        # Held across the compile: a second thread asking for the same
        # text waits for the first instead of compiling it again.
        with self._lock:
            program = self._programs.get(digest)
            if program is not None:
                self._hits += 1
                self._programs.move_to_end(digest)
                return program
            program = compile(text)
            # Frozen from here on: shared between modules, never mutated.
            for func in program.functions.values():
                func.fingerprint = body_fingerprint(func)
            program = dataclasses.replace(
                program,
                functions=types.MappingProxyType(program.functions),
                externs=types.MappingProxyType(program.externs),
                weval_imports=tuple(program.weval_imports))
            self._builds += 1
            self._programs[digest] = program
            if len(self._programs) > _CAP:
                self._programs.popitem(last=False)
            return program


IMAGES = ImageMemo()


def interpreter_image(text: str,
                      compile: Callable[[str], CompiledProgram]
                      ) -> CompiledProgram:
    """The frozen program for ``text``, compiled on first request.

    ``compile`` is the *calling module's* ``compile_source`` global: the
    ledger wraps that name to time the frontend, and it is what runs on
    a miss.
    """
    return IMAGES.get(text, compile)
