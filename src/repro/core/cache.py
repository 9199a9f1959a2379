"""The specialization cache's key (S6.5).

The paper caches on "input Wasm module hash plus the function
specialization request's argument data" to avoid redundant work for the
unchanging AOT IC corpus and to speed up incremental compilation.  We key
on (a) a fingerprint of the generic function body, (b) the request's
argument modes, (c) the contents of every memory range the request
promises constant, and (d) the specialization options that shape the
output.

:func:`request_key` builds that key; the cache itself is the persistent
artifact store (:mod:`repro.pipeline.artifacts`), and the engine dedups
a batch on the same key.  Which options belong to the key is declared
on the :class:`~repro.core.specialize.SpecializeOptions` fields
themselves (``metadata={"key": ...}``) and read here.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Optional

from repro.core.request import (
    SpecializationRequest,
    SpecializedMemory,
)
from repro.core.specialize import SpecializeOptions
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.ir.verifier import VerificationError
from repro.opt.pipeline import OPT_MAX_ROUNDS


def body_fingerprint(func: Function) -> str:
    """sha256 of a function body as printed now (id order)."""
    return hashlib.sha256(
        print_function(func, order="id").encode()).hexdigest()


def function_fingerprint(func: Function) -> str:
    """Fingerprint of a function body.  A frozen function (see
    :class:`~repro.ir.function.Function`) holds its own; any other is
    hashed on every call, because it may have changed since the last."""
    return func.fingerprint or body_fingerprint(func)


def check_frozen(func: Function) -> None:
    """The oracle behind "frozen": raise if the body no longer prints
    to the fingerprint recorded when it was frozen."""
    if body_fingerprint(func) != func.fingerprint:
        raise VerificationError(
            f"frozen function {func.name!r} was mutated: its body no "
            f"longer matches the fingerprint recorded when it was built")


def memory_fingerprint(request: SpecializationRequest,
                       memory: bytes) -> str:
    """Fingerprint of every memory range the request promises constant."""
    h = hashlib.sha256()
    for mode in request.args:
        if isinstance(mode, SpecializedMemory):
            h.update(memory[mode.pointer:mode.pointer + mode.length])
            h.update(b"|")
    for start, length in request.extra_const_memory:
        h.update(memory[start:start + length])
        h.update(b"|")
    return h.hexdigest()


# The fields whose ``metadata["key"]`` tag names the residual key.
_RESIDUAL_FIELDS = tuple(
    field.name for field in dataclasses.fields(SpecializeOptions)
    if field.metadata["key"] == "residual")


def options_key(options: Optional[SpecializeOptions]) -> Optional[tuple]:
    """The options that change specialization *output*: every field
    tagged ``"residual"``, in declaration order, then ``OPT_MAX_ROUNDS``
    in the seat it held as an option."""
    if options is None:
        return None
    return tuple(getattr(options, name)
                 for name in _RESIDUAL_FIELDS) + (OPT_MAX_ROUNDS,)


def request_key(module: Module, request: SpecializationRequest,
                options: Optional[SpecializeOptions],
                snapshot: bytes) -> tuple:
    """The canonical cache key for one specialization request.

    Layout (relied on by the pipeline engine): ``key[0]`` is the generic
    function fingerprint and ``key[2]`` the memory fingerprint.  Generic
    bodies are large, but the interpreters every runtime specializes are
    frozen and carry their fingerprint; only hand-built generics are
    hashed per request.
    """
    generic = module.functions[request.generic]
    return (function_fingerprint(generic),
            request.cache_key(),
            memory_fingerprint(request, snapshot),
            options_key(options))

