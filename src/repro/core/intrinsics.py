"""The weval intrinsics: names, signatures, and VM polyfills.

Intrinsics are declared as module *imports* (external functions), which
is the paper's mechanism for keeping them visible through any amount of
optimization of the interpreter body (S3, footnote 2).  There are two
families:

* **Hint intrinsics** (contexts, ``assert_const``) are not load-bearing
  for correctness: the VM polyfills them as no-ops / identities, so the
  *generic* interpreter runs unchanged (S3.1).  A data-dependent branch
  needs no intrinsic of its own: each arm updates the context and
  continues, S3.3's structural form (``docs/ARCHITECTURE.md`` says why
  the paper's value-specializing "Trick" is not reproduced).

* **State intrinsics** (virtual registers, in-memory locals, the operand
  stack) change where state lives, so they must only appear in the
  interpreter variant that is actually specialized (S4.3).  Their VM
  polyfills raise, which keeps accidental generic execution loud.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.ir.function import Signature
from repro.ir.module import HostFunc, Module
from repro.ir.types import I64

PREFIX = "weval."


@dataclasses.dataclass(frozen=True)
class Intrinsic:
    """Description of one weval intrinsic."""

    name: str                     # import name, e.g. "weval.update_context"
    sig: Signature
    polyfill: Optional[Callable]  # host implementation for generic runs


def _noop(vm, *args):
    return None


def _identity(vm, value, *rest):
    return value


def _no_polyfill_factory(name):
    def fail(vm, *args):
        raise RuntimeError(
            f"state intrinsic {name} executed in generic code; state "
            f"intrinsics are only valid in the specialized interpreter "
            f"variant (paper S4.3)")
    return fail


def _sig(nparams: int, has_result: bool) -> Signature:
    return Signature(tuple([I64] * nparams), (I64,) if has_result else ())


_INTRINSIC_LIST = [
    # Context control (S3.1).
    Intrinsic(PREFIX + "push_context", _sig(1, False), _noop),
    Intrinsic(PREFIX + "update_context", _sig(1, False), _noop),
    Intrinsic(PREFIX + "pop_context", _sig(0, False), _noop),
    # Debugging aid (S3.1): asserts compile-time constantness during
    # specialization; dynamically it is the identity.
    Intrinsic(PREFIX + "assert_const", _sig(1, True), _identity),
    # Virtual registers (S4.1).
    Intrinsic(PREFIX + "read_reg", _sig(1, True),
              _no_polyfill_factory("weval.read_reg")),
    Intrinsic(PREFIX + "write_reg", _sig(2, False),
              _no_polyfill_factory("weval.write_reg")),
    # In-memory locals with lazy write-back (S4.2).
    Intrinsic(PREFIX + "read_local", _sig(2, True),
              _no_polyfill_factory("weval.read_local")),
    Intrinsic(PREFIX + "write_local", _sig(3, False),
              _no_polyfill_factory("weval.write_local")),
    Intrinsic(PREFIX + "flush", _sig(0, False),
              _no_polyfill_factory("weval.flush")),
    # Virtualized operand stack (S4.2).
    Intrinsic(PREFIX + "push", _sig(2, False),
              _no_polyfill_factory("weval.push")),
    Intrinsic(PREFIX + "pop", _sig(1, True),
              _no_polyfill_factory("weval.pop")),
    Intrinsic(PREFIX + "read_stack", _sig(2, True),
              _no_polyfill_factory("weval.read_stack")),
    Intrinsic(PREFIX + "write_stack", _sig(3, False),
              _no_polyfill_factory("weval.write_stack")),
]

INTRINSICS: Dict[str, Intrinsic] = {i.name: i for i in _INTRINSIC_LIST}


def intrinsic_name(short: str) -> str:
    """Map a short name like ``"update_context"`` to the import name."""
    name = PREFIX + short
    if name not in INTRINSICS:
        raise KeyError(f"unknown weval intrinsic: {short}")
    return name


def register_weval_imports(module: Module) -> None:
    """Add every weval intrinsic to a module as a host import (idempotent)."""
    for intr in INTRINSICS.values():
        if not module.has_function(intr.name):
            module.add_import(HostFunc(intr.name, intr.sig, intr.polyfill))
