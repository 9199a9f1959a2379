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
as plain global names and ``_exhaust``, the depth-limit trap of the
callee prologue.
"""

from __future__ import annotations

from repro.ir.semantics import HELPERS
from repro.vm.machine import GuardFailed, OutOfFuel, VMTrap

__all__ = ["BACKEND_GLOBALS", "GuardFailed", "OutOfFuel", "VMTrap"]


def _exhaust(vm, name: str) -> None:
    """Depth-limit trap for the compiled-callee prologue (PR 10).

    The prologue has already incremented ``vm._call_depth`` but has not
    entered the ``try`` whose ``finally`` decrements it, so the
    roll-back happens here — mirroring ``VM._dispatch``'s
    increment/check/decrement order and trap message exactly.
    """
    vm._call_depth -= 1
    raise VMTrap(f"call stack exhausted in {name}")


# The global namespace for emitted code (copied per compiled function so
# nothing can leak between modules).
BACKEND_GLOBALS = {
    **HELPERS,
    "VMTrap": VMTrap,
    "OutOfFuel": OutOfFuel,
    "GuardFailed": GuardFailed,
    "_exhaust": _exhaust,
}
