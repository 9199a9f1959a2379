"""The Min register machine: the paper's S5 minimal case study.

Min is a 64-bit unsigned integer machine with a program counter, 256
indexed registers, and an accumulator.  This package contains its ISA and
assembler, two mini-C interpreter variants (with and without weval's
register intrinsics, mirroring the paper's Fig. 10 template trick), a
pure-Python reference interpreter (the "native interpreter" analog), the
sum-to-n program Fig. 8 runs (the figure itself is drawn by
``tests/test_paper_figures.py``), and the multi-endpoint fleet-serving
harness (:mod:`repro.min.fleet`).
"""

from repro.min.isa import Opcode, assemble, MinProgram
from repro.min.interp import (
    interp_source,
    build_min_module,
    min_request,
    specialize_min,
    PROGRAM_BASE,
)
from repro.min.harness import (
    PyMinInterpreter,
    sum_to_n_program,
)
from repro.min.fleet import (
    Endpoint,
    add_endpoint,
    build_fleet_module,
    endpoint_at,
    make_endpoints,
    make_fleet_worker,
    remove_endpoint,
)

__all__ = [
    "Opcode",
    "assemble",
    "MinProgram",
    "interp_source",
    "build_min_module",
    "min_request",
    "specialize_min",
    "PROGRAM_BASE",
    "PyMinInterpreter",
    "sum_to_n_program",
    "Endpoint",
    "add_endpoint",
    "build_fleet_module",
    "endpoint_at",
    "make_endpoints",
    "make_fleet_worker",
    "remove_endpoint",
]
