"""Runtime support for emitted Python code.

The emitted code executes with :data:`BACKEND_GLOBALS` as its module
globals.  The arithmetic in it is not defined here: an emitted pure op
is its row of :mod:`repro.ir.semantics` printed with ``v<n>`` operands,
and the helper names those rows call (``_idiv_s``, ``_ftoi``, ``_sext``,
...) are that module's ``HELPERS`` — the functions the VM and the
constant folder run.  The memory access comes from the same module: a
sized load or store subscripts a typed view of the VM's heap (``VQ``,
``Vd``, ...; bound from the VM, which made them with
``repro.ir.semantics.heap_views``) behind one mask test, and every
address the mask rejects calls the row's checked accessor (``_load64``,
``_storef64``, ...), which ``HELPERS`` carries: the VM's bounds check
and exact trap text, then the row's ``struct`` codec.  The NaN-box casts
write and read the VM's 8-byte scratch word (``XQ``/``Xd``).  What this
module adds is what only compiled code needs: the trap exception types
as plain global names and the two trap raisers emitted code calls out
of line, so a guard line spells only its test: ``_exhaust``, the
depth-limit trap of the callee prologue, and ``_oof``, the per-block
fuel-limit trap.  Each raises the VM's exception type with its exact
message.
"""

from __future__ import annotations

from repro.ir.semantics import HELPERS
from repro.vm.machine import GuardFailed, OutOfFuel, VMTrap

__all__ = ["BACKEND_GLOBALS", "GuardFailed", "VMTrap"]


def _exhaust(vm, name: str) -> None:
    """Depth-limit trap for the compiled-callee prologue (PR 10).

    The prologue has already incremented ``vm._call_depth`` but has not
    entered the ``try`` whose ``finally`` decrements it, so the
    roll-back happens here — mirroring ``VM._dispatch``'s
    increment/check/decrement order and trap message exactly.
    """
    vm._call_depth -= 1
    raise VMTrap(f"call stack exhausted in {name}")


def _oof(limit: int) -> None:
    """Fuel-limit trap: ``VM._eval``'s ``OutOfFuel`` text, raised at the
    block boundary where the VM checks."""
    raise OutOfFuel(f"fuel limit {limit} exceeded")


# The global namespace for emitted code (copied per compiled function so
# nothing can leak between modules).
BACKEND_GLOBALS = {
    **HELPERS,
    "VMTrap": VMTrap,
    "GuardFailed": GuardFailed,
    "_exhaust": _exhaust,
    "_oof": _oof,
}
