"""Modules: functions, linear memory, function table, globals, imports.

A module corresponds to a Wasm module in the paper's prototype: it owns a
single linear memory (whose initial contents act as the "snapshot" that
the weval transform may treat as constant), a table of functions used by
``call_indirect``, and named mutable globals (all i64).

The image is *mapped, not copied* (the paper's Wizer deployment, S3.5:
resuming from the snapshot is supposed to be nearly free): it and every
heap instantiated from it are private anonymous mappings
(:func:`new_heap`), and the module keeps an index of the image's
possibly-non-zero pages at its only two writers, ``write_init`` and
``freeze_image``.  Instantiation copies the indexed pages — 2–6 of a
MiniJS/MiniLua heap's 1 024 — and the OS supplies the rest as
lazily-zero pages.

Host functions (imports) are Python callables invoked by the VM.  The
``weval.*`` intrinsics are declared as imports, matching the paper's
argument that intrinsic calls survive optimization because they are
external functions (S3, footnote 2).
"""

from __future__ import annotations

import dataclasses
import mmap
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.function import Function, Signature
from repro.ir.instructions import MASK64
from repro.ir.semantics import HELPERS

# The image's word access goes through the table's 64-bit codec.
_getQ, _packQ = HELPERS["_getQ"], HELPERS["_packQ"]

# Granularity of the image's page index (any value is correct; the OS
# page is the one at which a mapping's untouched bytes cost nothing).
PAGE = mmap.PAGESIZE


def new_heap(size: int):
    """The one way to make a guest heap: ``size`` zero bytes in a
    private anonymous mapping, so the OS supplies every page nobody
    writes for free.  ``ACCESS_COPY`` is ``MAP_PRIVATE``; the default is
    ``MAP_SHARED``, under which a forked child's guest stores land in
    its parent's heap.  A mapping cannot be empty; an empty heap, where
    no access is in bounds, is an empty view."""
    if size == 0:
        return memoryview(b"")
    return mmap.mmap(-1, size, access=mmap.ACCESS_COPY)


@dataclasses.dataclass
class HostFunc:
    """An imported function implemented by the host (Python).

    ``fn`` receives ``(vm, *args)`` and returns an int/float or ``None``
    according to ``sig``.  ``vm`` is the executing
    :class:`repro.vm.machine.VM` so host functions can touch memory.
    """

    name: str
    sig: Signature
    fn: Callable


class Module:
    """A compilation unit: functions + memory + table + globals."""

    NULL_TABLE_INDEX = 0

    def __init__(self, memory_size: int = 1 << 20):
        self.functions: Dict[str, Function] = {}
        self.imports: Dict[str, HostFunc] = {}
        # Table slot 0 is reserved as "null"; calling it traps.
        self.table: List[Optional[str]] = [None]
        self.globals: Dict[str, int] = {}
        self.memory_size = memory_size
        # The frozen image and its index: every page outside
        # ``_init_pages`` is zero.  Both are written only by
        # ``write_init`` and ``freeze_image``.
        self.memory_init = new_heap(memory_size)
        self._init_pages: Set[int] = set()
        self._init_runs: Optional[Tuple[Tuple[int, int], ...]] = None

    # ------------------------------------------------------------------
    # Functions and imports.
    # ------------------------------------------------------------------
    def add_function(self, func: Function) -> Function:
        if func.name in self.functions or func.name in self.imports:
            raise ValueError(f"duplicate function name: {func.name}")
        self.functions[func.name] = func
        return func

    def add_import(self, host: HostFunc) -> HostFunc:
        if host.name in self.functions or host.name in self.imports:
            raise ValueError(f"duplicate import name: {host.name}")
        self.imports[host.name] = host
        return host

    def signature_of(self, name: str) -> Signature:
        if name in self.functions:
            return self.functions[name].sig
        if name in self.imports:
            return self.imports[name].sig
        raise KeyError(f"unknown function: {name}")

    def has_function(self, name: str) -> bool:
        return name in self.functions or name in self.imports

    # ------------------------------------------------------------------
    # Table.
    # ------------------------------------------------------------------
    def add_table_entry(self, name: str) -> int:
        """Append ``name`` to the function table; return its index."""
        if not self.has_function(name):
            raise KeyError(f"cannot table unknown function: {name}")
        self.table.append(name)
        return len(self.table) - 1

    # ------------------------------------------------------------------
    # Globals.
    # ------------------------------------------------------------------
    def add_global(self, name: str, init: int = 0) -> None:
        if name in self.globals:
            raise ValueError(f"duplicate global: {name}")
        self.globals[name] = init

    # ------------------------------------------------------------------
    # Memory initialization helpers.
    # ------------------------------------------------------------------
    def write_init(self, addr: int, data: bytes) -> None:
        """Write bytes into the initial memory image."""
        end = addr + len(data)
        if end > self.memory_size:
            raise ValueError(f"init data [{addr}, {end}) exceeds memory")
        if not data:
            return
        self.memory_init[addr:end] = data
        pages = range(addr // PAGE, (end - 1) // PAGE + 1)
        if not self._init_pages.issuperset(pages):
            self._init_pages.update(pages)
            self._init_runs = None

    def write_init_u64(self, addr: int, value: int) -> None:
        self.write_init(addr, _packQ(value & MASK64))

    def read_init_u64(self, addr: int) -> int:
        return _getQ(self.memory_init, addr)[0]

    def init_runs(self) -> Tuple[Tuple[int, int], ...]:
        """The indexed pages as ascending, merged ``(start, end)`` byte
        runs: outside them the image is zero."""
        if self._init_runs is None:
            runs: List[Tuple[int, int]] = []
            for page in sorted(self._init_pages):
                start = page * PAGE
                end = min(start + PAGE, self.memory_size)
                if runs and runs[-1][1] == start:
                    runs[-1] = (runs[-1][0], end)
                else:
                    runs.append((start, end))
            self._init_runs = tuple(runs)
        return self._init_runs

    def _sparse_copy(self, source):
        """A new heap holding ``source``'s bytes on the indexed runs
        and untouched (zero) pages everywhere else."""
        heap = new_heap(self.memory_size)
        for start, end in self.init_runs():
            heap[start:end] = source[start:end]
        return heap

    def instantiate_memory(self):
        """A fresh heap equal to the image, at the cost of the pages the
        image uses (:class:`repro.vm.machine.VM` calls this, once)."""
        return self._sparse_copy(self.memory_init)

    def freeze_image(self, heap) -> None:
        """Make ``heap`` (a live VM's memory) the image: index its
        non-zero pages and keep a copy of those alone."""
        zero = bytes(PAGE)
        self._init_pages = {
            start // PAGE for start in range(0, self.memory_size, PAGE)
            if not zero.startswith(heap[start:start + PAGE])}
        self._init_runs = None
        self.memory_init = self._sparse_copy(heap)

    # ------------------------------------------------------------------
    # Size metrics (for the S6.4 code-size experiment).
    # ------------------------------------------------------------------
    def code_size(self) -> int:
        """A deterministic proxy for module byte size: total instruction
        count plus per-block and per-function overhead."""
        size = 0
        for func in self.functions.values():
            size += 4  # function header
            for block in func.blocks.values():
                size += 2 + len(block.params)
                size += sum(2 for _ in block.instrs)
                size += 2  # terminator
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Module funcs={len(self.functions)} "
                f"imports={len(self.imports)} table={len(self.table)}>")
