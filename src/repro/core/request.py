"""Specialization requests: the semantics-preserving interface (S3.5).

A request names a generic function and gives each parameter one of three
modes:

* :class:`Runtime` — unknown at specialization time;
* :class:`SpecializedConst` — the parameter will have this exact value;
* :class:`SpecializedMemory` — the parameter is a pointer to ``length``
  bytes that are constant at invocation time (e.g. bytecode).

The request is a *promise*: the specialized function is equivalent to the
generic one whenever the promise holds at the call.  To retain
function-pointer compatibility the specialized function keeps the full
parameter list and simply ignores specialized parameters.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.ir.printer import float_text
from repro.ir.semantics import _bits_ftoi


class ArgMode:
    """Base class for parameter specialization modes."""


@dataclasses.dataclass(frozen=True)
class Runtime(ArgMode):
    """The parameter is only known at run time."""


@dataclasses.dataclass(frozen=True)
class SpecializedConst(ArgMode):
    """The parameter will have this constant value (i64 or f64)."""

    value: object


@dataclasses.dataclass(frozen=True)
class SpecializedMemory(ArgMode):
    """The parameter is a pointer to constant bytes in the heap image."""

    pointer: int
    length: int


@dataclasses.dataclass(frozen=True)
class SpeculatedConst(ArgMode):
    """The parameter is *expected* to have this value (profile-observed).

    Unlike :class:`SpecializedConst`, the promise is not guaranteed by
    the embedder: the specializer folds the value as a constant but emits
    an entry ``guard`` instruction checking the actual argument, and a
    failed guard deoptimizes the call back to the generic function (see
    :mod:`repro.pipeline.tiering`).  i64 parameters only.
    """

    value: int


@dataclasses.dataclass
class SpecializationRequest:
    """One unit of work for the weval transform."""

    generic: str
    args: List[ArgMode]
    specialized_name: Optional[str] = None
    # Additional (addr, length) ranges promised constant, beyond the
    # SpecializedMemory parameters (e.g. tables the bytecode points into).
    extra_const_memory: List[Tuple[int, int]] = dataclasses.field(
        default_factory=list)
    # Speculative inlining plan: ((site_id, ((table_index, callee_fp),
    # ...)), ...).  Each entry asks the specializer to splice the named
    # table entries' bodies into the residual at that call_indirect site,
    # behind a polymorphic guard on the callee index.  The callee
    # fingerprints pin the exact bodies the plan was built against, so
    # cached artifacts cannot be replayed against a different module.
    inline_plan: Tuple = ()

    def name(self) -> str:
        if self.specialized_name:
            return self.specialized_name
        parts = []
        for arg in self.args:
            if isinstance(arg, SpecializedConst):
                value = arg.value
                if isinstance(value, float):  # a NaN by its bits
                    value = float_text(value)
                parts.append(f"c{value}")
            elif isinstance(arg, SpecializedMemory):
                parts.append(f"m{arg.pointer:x}")
            elif isinstance(arg, SpeculatedConst):
                parts.append(f"g{arg.value}")
            else:
                parts.append("r")
        base = f"{self.generic}.spec.{'_'.join(parts)}"
        if self.inline_plan:
            base += f".inl{len(self.inline_plan)}"
        return base

    def cache_key(self) -> tuple:
        """A hashable key identifying this request's argument data (used
        by :func:`~repro.core.cache.request_key` together with a hash of
        the generic function and the referenced memory contents).  An
        f64 is keyed by its bits: ``==`` and ``repr`` merge ±0 and NaNs."""
        frozen_args = tuple(
            (type(a).__name__,) + tuple(
                (k, ("f64", _bits_ftoi(v)) if isinstance(v, float) else v)
                for k, v in dataclasses.asdict(a).items())
            for a in self.args)
        return (self.generic, frozen_args, tuple(self.extra_const_memory),
                self.inline_plan)
