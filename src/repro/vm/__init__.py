"""An evaluator for :mod:`repro.ir` modules.

This plays the role Wasmtime plays in the paper: it executes both the
generic interpreter functions and the weval-specialized functions, against
a linear memory instantiated from the module's snapshot image.  Besides
wall-clock time, it maintains a deterministic *fuel* counter (number of IR
instructions executed), which every tier charges alike and the benchmark
harness uses as a stable stand-in for hardware time, and load/store/call
counters of the instructions it interprets itself.
"""

from repro.vm.machine import VM, VMTrap, OutOfFuel, GuardFailed, ExecStats

__all__ = ["VM", "VMTrap", "OutOfFuel", "GuardFailed", "ExecStats"]
