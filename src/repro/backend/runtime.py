"""Runtime support for emitted Python code.

The emitted code executes with :data:`BACKEND_GLOBALS` as its module
globals.  The arithmetic in it is not defined here: an emitted pure op
is its row of :mod:`repro.ir.semantics` printed with ``v<n>`` operands,
and the helper names those rows call (``_idiv_s``, ``_ftoi``, ``_sext``,
...) are that module's ``HELPERS`` — the functions the VM and the
constant folder run.  The memory accessors come from the same table: a
sized load or store calls the codec its ``LOADS``/``STORES`` row names
(``_getQ``, ``_putd``, ...), which ``HELPERS`` carries too.  What this
module adds is what only compiled code needs: the trap exception types
as plain global names and the three trap raisers emitted code calls
out of line, so a guard line spells only its test: ``_exhaust``, the
depth-limit trap of the callee prologue; ``_oof``, the per-block
fuel-limit trap; and ``_oob``, the bounds trap of a sized load or
store.  Each raises the VM's exception type with its exact message.
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


def _oob(op: str, addr: int) -> None:
    """Bounds trap of the sized load or store ``op``: ``VM._eval``'s
    ``VMTrap`` text, raised before memory is touched."""
    raise VMTrap(f"oob {op} at {addr:#x}")


# The global namespace for emitted code (copied per compiled function so
# nothing can leak between modules).
BACKEND_GLOBALS = {
    **HELPERS,
    "VMTrap": VMTrap,
    "GuardFailed": GuardFailed,
    "_exhaust": _exhaust,
    "_oof": _oof,
    "_oob": _oob,
}
