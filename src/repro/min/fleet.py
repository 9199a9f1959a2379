"""A multi-endpoint Min service: the fleet-serving harness.

The single-program flows (:mod:`repro.min.harness`) load one guest
program at :data:`~repro.min.interp.PROGRAM_BASE`.  A serving fleet
instead hosts many *endpoints* — one guest Min program each, loaded at
its own heap base — behind the one runnable generic ``min_interp``.
The :class:`~repro.pipeline.tiering.TieringController` keys profiles on
the program pointer (the first call argument), so each endpoint is
profiled, promoted, and cached independently: hot endpoints specialize,
cold ones never cost a microsecond of compile time, and the per-endpoint
``SpecializedMemory`` fingerprints keep their artifacts distinct in a
shared :class:`~repro.pipeline.artifacts.ArtifactStore`.

As a guest of :mod:`repro.pipeline.host` the fleet supplies the same
two things every guest does: tier entries (:meth:`Endpoint.tier_entry`)
and the entry into a program (:func:`serve`).

Used by ``examples/fleet_server.py`` (a forked multi-worker router over
one artifact store and heat file) and the ledger's ``fleet_adopt``
workload (a fresh worker adopting persisted heat over a warm store).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Optional, Sequence, Tuple

from repro.core.request import (
    Runtime,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
)
from repro.core.specialize import SpecializeOptions
from repro.frontend import compile_source
from repro.ir.module import Module
from repro.min.interp import add_min_interpreters
from repro.min.isa import MinProgram, assemble
from repro.pipeline.host import controller_for
from repro.pipeline.tiering import TierEntry, TieringController
from repro.vm import VM

# Endpoint programs live at ENDPOINT_HEAP_BASE + i * ENDPOINT_STRIDE;
# dispatch slots (patched with the residual's table index on promotion)
# at ENDPOINT_SLOT_BASE + i * 8.  Both regions sit below the
# interpreter's shadow stack, which starts far above any endpoint.
ENDPOINT_HEAP_BASE = 0x10000
ENDPOINT_STRIDE = 0x1000
ENDPOINT_SLOT_BASE = 0x100


@dataclasses.dataclass(frozen=True)
class Endpoint:
    """One fleet endpoint: a named guest program at a fixed heap base."""

    name: str
    program: MinProgram
    base: int
    slot: int

    @property
    def token(self) -> str:
        """Stable content identity of this endpoint: a hash of the name
        and the program words.  Heap bases get *reused* across endpoint
        churn (drop an endpoint, register another at the same base), so
        anything persisted across that churn — fleet heat, above all —
        must key on the program's content, never on its address."""
        payload = repr((self.name, tuple(self.program.words)))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def args(self, value: int = 0) -> List[int]:
        """Generic-call arguments for one request to this endpoint."""
        return [self.base, len(self.program.words), value]

    def request(self) -> SpecializationRequest:
        return SpecializationRequest(
            "min_interp_spec",
            [SpecializedMemory(self.base, self.program.size_bytes()),
             SpecializedConst(len(self.program.words)), Runtime()],
            specialized_name=f"min_{self.name}")

    def tier_entry(self) -> TierEntry:
        return TierEntry(generic="min_interp", key=self.base,
                         request=self.request(), result_addr=self.slot,
                         heat_key=f"min_interp@{self.token}")


def endpoint_at(index: int, name: str, program: MinProgram) -> Endpoint:
    """One endpoint at layout slot ``index`` — also the churn path: a
    new tenant at a base whose previous occupant was removed."""
    if program.size_bytes() > ENDPOINT_STRIDE:
        raise ValueError(f"endpoint {name!r} exceeds the "
                         f"{ENDPOINT_STRIDE}-byte program stride")
    return Endpoint(name=name, program=program,
                    base=ENDPOINT_HEAP_BASE + index * ENDPOINT_STRIDE,
                    slot=ENDPOINT_SLOT_BASE + index * 8)


def make_endpoints(programs: Sequence[Tuple[str, MinProgram]]
                   ) -> List[Endpoint]:
    """Lay out named programs as endpoints (order fixes the bases, and
    therefore the cache keys — every worker must use the same order)."""
    return [endpoint_at(i, name, program)
            for i, (name, program) in enumerate(programs)]


def build_fleet_module(endpoints: Sequence[Endpoint],
                       memory_size: int = 1 << 20) -> Module:
    """Both interpreter variants plus every endpoint's bytecode in the
    heap image."""
    module = Module(memory_size=memory_size)
    add_min_interpreters(module, compile_source)
    for endpoint in endpoints:
        for i, word in enumerate(endpoint.program.words):
            module.write_init_u64(endpoint.base + i * 8, word)
    return module


def make_fleet_worker(endpoints: Sequence[Endpoint],
                      threshold: float = 4,
                      options: Optional[SpecializeOptions] = None
                      ) -> Tuple[VM, TieringController]:
    """One serving worker: a fresh VM plus a tiering controller with
    every endpoint registered (all tier 0 until the profile, or adopted
    fleet heat, says otherwise)."""
    module = build_fleet_module(endpoints)
    controller = controller_for(
        module, [endpoint.tier_entry() for endpoint in endpoints],
        options, threshold=threshold)
    vm = controller.attach(VM(module))
    return vm, controller


def serve(vm: VM, endpoint: Endpoint, value: int = 0) -> int:
    """One request: dispatch through the generic entry; the tier hook
    redirects to the endpoint's residual once promoted."""
    return vm.call("min_interp", endpoint.args(value))


# ---------------------------------------------------------------------------
# Endpoint churn on a live worker.
# ---------------------------------------------------------------------------

def add_endpoint(vm: VM, controller: TieringController,
                 endpoint: Endpoint) -> None:
    """Register an endpoint with a live worker.

    Scrubs the full program stride (a previous tenant's trailing words
    must not survive under the new program), loads the program into the
    live heap — the snapshot compiler specializes against live memory,
    so the memory fingerprint, and with it every cache key, tracks the
    *current* tenant — and declares the endpoint to the controller."""
    for offset in range(0, ENDPOINT_STRIDE, 8):
        vm.store_u64(endpoint.base + offset, 0)
    for i, word in enumerate(endpoint.program.words):
        vm.store_u64(endpoint.base + i * 8, word)
    controller.register(endpoint.tier_entry())


def remove_endpoint(vm: VM, controller: TieringController,
                    endpoint: Endpoint) -> None:
    """Drop an endpoint from a live worker.

    Retires its tier state (the controller zeroes the dispatch slot and
    forgets the profile, so no call with this base can ever be routed
    to the retired residual again) and scrubs its program words."""
    controller.unregister(endpoint.tier_entry())
    for offset in range(0, ENDPOINT_STRIDE, 8):
        vm.store_u64(endpoint.base + offset, 0)


# ---------------------------------------------------------------------------
# Demo workload: the endpoint programs the example and bench serve.
# ---------------------------------------------------------------------------

def sum_squares_program(n: int) -> MinProgram:
    """sum(i*i for i in n..1) — a second distinct hot loop."""
    return assemble([
        ("LOAD_IMMEDIATE", n),
        ("STORE_REG", 0),
        ("LOAD_IMMEDIATE", 0),
        ("STORE_REG", 1),
        ("label", "loop"),
        ("MUL", 0, 0),          # acc = counter * counter
        ("STORE_REG", 2),
        ("ADD", 1, 2),          # acc = sum + counter^2
        ("STORE_REG", 1),
        ("LOAD_REG", 0),
        ("ADD_IMMEDIATE", -1),  # counter -= 1
        ("STORE_REG", 0),
        ("JMPNZ", "loop"),
        ("LOAD_REG", 1),
        ("HALT",),
    ])


def constant_program(value: int) -> MinProgram:
    """A trivial straight-line program — a cold admin endpoint."""
    return assemble([
        ("LOAD_IMMEDIATE", value),
        ("STORE_REG", 0),
        ("LOAD_IMMEDIATE", 1),
        ("STORE_REG", 1),
        ("ADD", 0, 1),
        ("HALT",),
    ])
