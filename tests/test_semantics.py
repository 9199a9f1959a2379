"""Op-grid oracle for :mod:`repro.ir.semantics`, the one definition of
what every IR op means.

The VM, the constant folder and the emitter all *derive* from
that table, so "VM ≡ folder ≡ compiled code" is structural; this file
is the executable statement of it:

* **op grid** — every pure op × an edge grid of operands (and, via
  hypothesis, random ones — this is where the old
  ``test_properties.py::test_fold_matches_vm_for_int_binops`` lives now,
  extended from the int binops to every row): VM ≡ ``fold_pure_op`` ≡
  structured-emitted ≡ emitted through the forced fallback
  (:data:`tests.helpers.EMIT_LEGS`), trap messages byte-equal, only
  ``VMTrap`` ever escapes, i64 results stay in ``[0, 2**64)``;
* **memory grid** — every sized load/store, whose effective address is
  ``(addr + offset) mod 2**64``, at in-range, last-byte, straddling,
  out-of-bounds, negative and wrapping addresses, and at the aligned
  words either side of where compiled code's typed heap views end
  (``P - w`` and ``P``) and the last aligned word in bounds, with and
  without a static offset, on heaps of 0, 1, 7, 8, 64 and
  4095/4096/4097 bytes (empty, shorter than a word, one word, and
  either side of a page — the heap is a mapping, which cannot be empty
  and raises where a ``bytearray`` would grow), and under hypothesis
  at drawn (heap size, address, offset, row): VM ≡ both emit legs
  (value, trap text, memory image afterwards) ≡ an expectation computed
  here from the heap's bytes (``int.from_bytes`` and sign extension,
  ``struct.unpack("<d")``; never from ``src/``, since every consumer
  runs the same row), and loads ≡ ``ConstMemoryImage.read`` (the
  specializer's fold of the same access); the host's word access
  (``vm.load_u64``/``store_u64``) ≡ the ``load64``/``store64`` rows at
  every grid address; each width's mask admits exactly the aligned
  words of the views, and a NaN payload survives the compiled casts'
  scratch word;
* **completeness** — the tables cover exactly the opcodes they claim;
* **guards** — no consumer names a pure or memory op in a string
  literal (a fourth copy would have to), ``oob_trap`` is called only
  in ``ir/semantics.py``, no consumer spells a width of its own,
  ``backend/runtime.py`` defines no helper but the two trap raisers,
  and ``repro.ir.semantics`` imports nothing above ``repro.ir``;
* ``fdiv`` over ±0 against an IEEE oracle;
* the end-to-end regressions the single definition fixed
  (``Math.floor`` of ±inf/NaN, a NaN over 0).
"""

import ast
import functools
import math
import os
import re
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import emit_function_source
from repro.backend.runtime import BACKEND_GLOBALS
from repro.core.lattice import ConstMemoryImage, fold_pure_op
from repro.core.request import SpecializationRequest, SpecializedMemory
from repro.core.specialize import SpecializeOptions, specialize
from repro.ir import F64, I64, Module, parse_function, print_function
from repro.ir.instructions import OPCODES
from repro.ir.module import new_heap
from repro.ir.semantics import (
    HELPERS,
    LOADS,
    PURE_EXPRS,
    PURE_FNS,
    STORES,
    _compile_row,
    heap_views,
)
from repro.jsvm import JSRuntime
from repro.vm import VM, VMTrap

from tests.helpers import EMIT_LEGS, compile_legs, single_op_module

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
MASK64 = (1 << 64) - 1

INT_GRID = (0, 1, 2, 63, 64, 65, (1 << 32) - 1, 1 << 32,
            (1 << 63) - 1, 1 << 63, (1 << 63) + 1, MASK64)
# Two NaNs with distinct payloads, a quiet one and a signalling one.
NAN_1, NAN_2 = (struct.unpack("<d", struct.pack("<Q", bits))[0]
                for bits in (0x7FF8000000000001, 0xFFF4000000000002))
FLOAT_GRID = (0.0, -0.0, 1.0, -1.5, 0.5, -0.5, math.inf, -math.inf,
              math.nan, NAN_1, NAN_2, float(1 << 63), -float(1 << 63),
              float(1 << 64), 5e-324, 1.7976931348623157e308)


def _key(value):
    """A comparison key that tells -0.0 from 0.0, one NaN payload from
    another, an int from a float and a bool from an int."""
    if type(value) is float:
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


class _Harness:
    """One single-instruction function
    (:func:`tests.helpers.single_op_module`), runnable on the plain VM
    and as Python emitted on each leg."""

    def __init__(self, op, arg_types, result_type, imm=None,
                 memory_size=64):
        self.module = single_op_module(op, arg_types, result_type, imm,
                                       memory_size)
        self.compiled = compile_legs(self.module.functions["f"],
                                     self.module)

    def run(self, args, memory=None):
        """``{leg: (status, payload, memory image)}`` for the three
        executing legs.  Anything but ``VMTrap`` propagates and fails
        the test."""
        out = {}
        for leg in ("vm",) + EMIT_LEGS:
            # The limit turns a runaway dispatch loop into a failure.
            vm = VM(self.module, fuel_limit=64)
            if memory:
                vm.memory[:] = memory
            if leg != "vm":
                vm.install_compiled({"f": self.compiled[leg]})
            try:
                out[leg] = ("ok", _key(vm.call("f", list(args))),
                            bytes(vm.memory))
            except VMTrap as trap:
                out[leg] = ("trap", str(trap), bytes(vm.memory))
        return out


def _operand_types(op):
    info = OPCODES[op]
    if op != "select":
        return [(info.arg_types, info.result)]
    # Polymorphic value operands: both instantiations.
    return [((I64, ty, ty), ty) for ty in (I64, F64)]


_PURE_HARNESSES = {
    (op, arg_types): _Harness(op, arg_types, result)
    for op in PURE_EXPRS for arg_types, result in _operand_types(op)
}


def _check_pure(op, arg_types, args):
    harness = _PURE_HARNESSES[op, arg_types]
    legs = harness.run(args)
    vm = legs["vm"]
    for mode in EMIT_LEGS:
        assert legs[mode] == vm, f"{op}{args}: vm={vm!r} {mode}={legs[mode]!r}"
    folded = fold_pure_op(op, None, list(args))
    if vm[0] == "trap":
        # Only trapping cases refuse to fold.
        assert folded is None, f"{op}{args}: folded a trapping op"
        return
    assert folded is not None and _key(folded) == vm[1], (
        f"{op}{args}: vm={vm!r} fold={folded!r}")
    result_type = harness.module.functions["f"].sig.results[0]
    if result_type is I64:
        assert type(folded) is int and 0 <= folded <= MASK64, (
            f"{op}{args}: {folded!r} is not an i64 bit pattern")
    else:
        assert type(folded) is float


def _grid(ty):
    return INT_GRID if ty is I64 else FLOAT_GRID


def _grid_product(arg_types):
    if not arg_types:
        yield ()
        return
    for head in _grid(arg_types[0]):
        for rest in _grid_product(arg_types[1:]):
            yield (head,) + rest


@pytest.mark.parametrize("op,arg_types", sorted(_PURE_HARNESSES, key=str))
def test_pure_op_edge_grid(op, arg_types):
    if op == "select":
        # The condition is the interesting axis; two distinct values.
        values = (3, MASK64) if arg_types[1] is I64 else (-0.0, math.nan)
        for cond in INT_GRID:
            _check_pure(op, arg_types, (cond,) + values)
        return
    for args in _grid_product(arg_types):
        _check_pure(op, arg_types, args)
        # One definition of a double's bits: the helper host code calls
        # (``jsvm.values.box_double``/``unbox_double``) is the row.
        if op in ("bits_ftoi", "bits_itof"):
            assert _key(HELPERS["_" + op](*args)) \
                == _key(PURE_FNS[op](*args)), args


u64 = st.integers(min_value=0, max_value=MASK64)
f64 = st.floats(allow_nan=True, allow_infinity=True)


@given(key=st.sampled_from(sorted(_PURE_HARNESSES, key=str)), data=st.data())
@settings(max_examples=600, deadline=None)
def test_pure_op_random_operands(key, data):
    op, arg_types = key
    args = tuple(data.draw(u64 if ty is I64 else f64) for ty in arg_types)
    _check_pure(op, arg_types, args)


# The rows over two floats that yield a float: each gives two NaN
# operands' result the payload of the first.
FLOAT_BINARY_ROWS = sorted(
    op for op, info in OPCODES.items()
    if op in PURE_EXPRS and info.arg_types == (F64, F64)
    and info.result is F64)


@pytest.mark.parametrize("op", FLOAT_BINARY_ROWS)
def test_two_nans_give_the_first_payload_from_the_first_call(op):
    """Of two NaNs with distinct payloads, in either order, the result
    carries the first one's payload (quieted) on every call from the
    1st to the 100th: the row compiled afresh (its bytecode not yet
    specialized), the VM, ``fold_pure_op`` and freshly emitted code on
    both legs.  CPython's own ``a + b`` gives the second operand's
    payload until it specializes the bytecode, after a few calls."""
    def bits(value):
        return struct.unpack("<Q", struct.pack("<d", value))[0]

    module = single_op_module(op, (F64, F64), F64)
    compiled = compile_legs(module.functions["f"], module)
    for x, y in ((NAN_1, NAN_2), (NAN_2, NAN_1)):
        vm = VM(module)
        legs = {"row": functools.partial(_compile_row(op, PURE_EXPRS[op]),
                                         x, y),
                "vm": functools.partial(vm.call, "f", [x, y]),
                "fold": functools.partial(fold_pure_op, op, None, [x, y])}
        for leg, fn in compiled.items():
            emitted = VM(module)
            emitted.install_compiled({"f": fn})
            legs[leg] = functools.partial(emitted.call, "f", [x, y])
        for leg, call in legs.items():
            got = [bits(call()) for _ in range(100)]
            assert got == [bits(x) | 1 << 51] * 100, (op, leg, hex(got[0]))


def test_fdiv_by_zero_is_ieee():
    """Every ``FLOAT_GRID`` dividend over +0.0 and -0.0: the result is a
    NaN exactly when the dividend is a NaN or ±0, and otherwise an
    infinity whose sign is the xor of the operands' signs; a NaN
    dividend keeps its payload, quieted, as it does over a nonzero
    divisor.  Checked on calls 1–100 of the VM, ``fold_pure_op`` and
    both emit legs."""
    def bits(value):
        return struct.unpack("<Q", struct.pack("<d", value))[0]

    module = single_op_module("fdiv", (F64, F64), F64)
    compiled = compile_legs(module.functions["f"], module)
    for x in FLOAT_GRID:
        for y in (0.0, -0.0):
            if x != x:
                expected = {bits(x) | 1 << 51}
            elif x == 0.0:
                expected = None
            else:
                negative = (math.copysign(1.0, x) < 0) != \
                    (math.copysign(1.0, y) < 0)
                expected = {bits(-math.inf if negative else math.inf)}
            legs = {"vm": functools.partial(VM(module).call, "f", [x, y]),
                    "fold": functools.partial(fold_pure_op, "fdiv", None,
                                              [x, y])}
            for leg, fn in compiled.items():
                emitted = VM(module)
                emitted.install_compiled({"f": fn})
                legs[leg] = functools.partial(emitted.call, "f", [x, y])
            for leg, call in legs.items():
                for _ in range(100):
                    got = call()
                    assert type(got) is float, (x, y, leg)
                    if expected is None:
                        assert got != got, (x, y, leg, got)
                    else:
                        assert bits(got) in expected, (x, y, leg, got)


def test_ffloor_is_ieee_on_non_finite():
    floor = PURE_FNS["ffloor"]
    assert floor(math.inf) == math.inf
    assert floor(-math.inf) == -math.inf
    assert math.isnan(floor(math.nan))
    assert floor(-1.5) == -2.0 and floor(1.5) == 1.0


# ---------------------------------------------------------------------------
# Memory ops.
# ---------------------------------------------------------------------------

# Empty, shorter than a word, one word, a few words, and either side of
# a page boundary.
MEMORY_SIZES = (0, 1, 7, 8, 64, 4095, 4096, 4097)
OFFSETS = (0, 8, -8)


def _image(memory_size):
    """Bytes of both signs from address 0 on (0x5B, 0x80, 0xA5, ...), so
    every signed load is exercised on negative and non-negative values."""
    return bytes((i * 37 + 0x5B) & 0xFF for i in range(memory_size))


def _view_limit(memory_size):
    """``P``, the largest power of two not above the heap's size: the
    end of the typed views compiled code subscripts."""
    return 1 << (memory_size.bit_length() - 1) if memory_size else 0


def _addresses(memory_size, size, offset):
    """In-range, last valid, first invalid (straddling the end), the
    last byte, far out, below zero (a negative sum, which wraps to the
    top of the address space) and past ``2**64`` (``MASK64`` plus a
    positive offset, which wraps into the heap); and the words either side of the views' end — the
    aligned words at ``P - size`` and ``P`` and the last aligned word in
    bounds, which on a heap that is not a power of two lies past ``P``
    (4095 bytes: ``P`` is 2048, the last 8-byte word 4080)."""
    last = memory_size - size - offset
    p = _view_limit(memory_size)
    last_aligned = (memory_size - size) & -size
    return sorted({a for a in (0, 1, 17, last - 1, last, last + 1,
                               memory_size - 1 - offset, memory_size,
                               p - size - offset, p - offset,
                               last_aligned - offset,
                               1 << 32, MASK64, -offset, -offset - 1)
                   if 0 <= a <= MASK64})


@functools.lru_cache(maxsize=256)
def _memory_harness(op, offset, memory_size):
    if op in LOADS:
        return _Harness(op, (I64,), OPCODES[op].result, imm=offset,
                        memory_size=memory_size)
    value_type = F64 if STORES[op].float else I64
    return _Harness(op, (I64, value_type), None, imm=offset,
                    memory_size=memory_size)


def _expected_load(row, raw):
    """What a load of ``row`` reads from the bytes ``raw``, spelled here
    rather than taken from the table."""
    if row.float:
        return struct.unpack("<d", raw)[0]
    value = int.from_bytes(raw, "little")
    if row.signed and value >> (8 * row.size - 1):
        value = (value - (1 << 8 * row.size)) & MASK64
    return value


def _check_access(op, offset, memory_size, addr, value=None):
    """One load (``value`` None) or store at ``(addr + offset) mod
    2**64`` on a heap of ``_image(memory_size)``: VM ≡ both emit legs for the value, the
    trap text and the heap image, and the VM does what the access means,
    computed here from the heap's bytes — an in-bounds load reads their
    little-endian value (sign-extended, or as a double), as
    ``ConstMemoryImage`` folds it too, an in-bounds store writes the
    value's low bytes, anything else traps with the access's ``oob`` text
    and leaves the heap alone.  Returns whether it trapped."""
    row = LOADS.get(op) or STORES[op]
    memory = _image(memory_size)
    args = (addr,) if value is None else (addr, value)
    legs = _memory_harness(op, offset, memory_size).run(args, memory)
    vm = legs["vm"]
    where = f"{op}+{offset} @{addr:#x} <- {value!r} on {memory_size}"
    for mode in EMIT_LEGS:
        assert legs[mode] == vm, f"{where}: vm={vm!r} {mode}={legs[mode]!r}"
    # The effective address is the sum mod 2**64, so a sum past the top
    # of the address space wraps (into the heap, for ``MASK64 + 8``).
    effective = (addr + offset) & MASK64
    if effective > memory_size - row.size:
        assert vm == ("trap", f"oob {op} at {effective:#x}", memory), where
        return True
    assert vm[0] == "ok", where
    if value is None:
        expected = _expected_load(row, memory[effective:
                                              effective + row.size])
        folded = ConstMemoryImage(memory, [(0, memory_size)]).read(
            effective, row)
        assert _key(expected) == vm[1] == _key(folded) \
            and vm[2] == memory, (
                f"{where}: vm={vm!r} expected={expected!r} "
                f"image={folded!r}")
    else:
        stored = (struct.pack("<d", value) if row.float else
                  value.to_bytes(8, "little")[:row.size])
        expected = bytearray(memory)
        expected[effective:effective + row.size] = stored
        assert vm[2] == bytes(expected), where
    return False


@pytest.mark.parametrize("op", sorted(LOADS))
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("memory_size", MEMORY_SIZES)
def test_load_grid(op, offset, memory_size):
    traps = sum(_check_access(op, offset, memory_size, addr)
                for addr in _addresses(memory_size, LOADS[op].size, offset))
    assert traps >= 3


@pytest.mark.parametrize("op", sorted(STORES))
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("memory_size", MEMORY_SIZES)
def test_store_grid(op, offset, memory_size):
    row = STORES[op]
    traps = sum(_check_access(op, offset, memory_size, addr, value)
                for addr in _addresses(memory_size, row.size, offset)
                for value in _grid(F64 if row.float else I64))
    assert traps >= 3


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_memory_random_accesses(data):
    """The grids' oracle at drawn (heap size, address, offset, row):
    the addresses cluster where the views end (``P - size`` and ``P``)
    and where the heap ends, on every side of both, and a drawn sum
    outside ``[0, 2**64)`` reaches them through the wrap."""
    op = data.draw(st.sampled_from(sorted(LOADS) + sorted(STORES)))
    row = LOADS.get(op) or STORES[op]
    memory_size = data.draw(st.integers(0, 80)
                            | st.sampled_from(MEMORY_SIZES))
    offset = data.draw(st.sampled_from(OFFSETS) | st.integers(-9, 9))
    p = _view_limit(memory_size)
    near = st.sampled_from((0, p - row.size, p, memory_size - row.size,
                            memory_size))
    target = data.draw(st.builds(lambda at, d: at + d, near,
                                 st.integers(-9, 9))
                       | st.integers(-(1 << 64), 1 << 65))
    addr = (target - offset) & MASK64
    value = None
    if op in STORES:
        value = data.draw(f64 if row.float else u64)
    _check_access(op, offset, memory_size, addr, value)


def test_a_wrapped_constant_address_folds_to_what_the_vm_loads():
    """``load64 +16`` of the constant ``2**64 - 8`` is the word at 8 on
    the VM, and the specializer's constant-memory fold of the access
    over ``SpecializedMemory(0, 64)`` is the same word: the fold and the
    accessor read one address, ``(base + offset) mod 2**64``."""
    module = Module(memory_size=64)
    module.write_init_u64(8, 0x1122334455667788)
    module.add_function(parse_function(f"""\
func @f(v0: i64) -> i64 {{
block0:
  v1 = iconst {MASK64 - 7}
  v2 = load64 +16 v1
  return v2
}}""", module))
    residual = specialize(module, SpecializationRequest(
        "f", [SpecializedMemory(0, 64)], specialized_name="f_s"))
    assert "load64" not in print_function(residual)
    module.add_function(residual)
    assert VM(module).call("f", [0]) == 0x1122334455667788
    assert VM(module).call("f_s", [0]) == 0x1122334455667788


def _host_word(vm, access, *args):
    """``(status, payload, heap afterwards)`` of one host word access, in
    the shape :meth:`_Harness.run` gives a guest one."""
    try:
        return ("ok", _key(access(*args)), bytes(vm.memory))
    except VMTrap as trap:
        return ("trap", str(trap), bytes(vm.memory))


@pytest.mark.parametrize("memory_size", MEMORY_SIZES)
def test_host_word_access_is_the_word_rows(memory_size):
    """``vm.load_u64``/``store_u64`` ≡ the guest's ``load64``/``store64``
    at every grid address and at negative ones (value, trap text, heap
    afterwards); a host value is taken as its i64 bit pattern, so a
    negative one stores what its pattern does."""
    memory = _image(memory_size)
    loads = _memory_harness("load64", 0, memory_size)
    stores = _memory_harness("store64", 0, memory_size)
    addresses = _addresses(memory_size, 8, 0)
    for addr in addresses + [-1, -8]:
        vm = VM(loads.module)
        if memory:
            vm.memory[:] = memory
        host = _host_word(vm, vm.load_u64, addr)
        assert host == loads.run((addr,), memory)["vm"], (addr, host)
        for bits in (0, 1 << 63, MASK64):
            vm = VM(stores.module)
            if memory:
                vm.memory[:] = memory
            signed = bits - (1 << 64) if bits >> 63 else bits
            host = _host_word(vm, vm.store_u64, addr, signed)
            guest = stores.run((addr, bits), memory)["vm"]
            assert host == guest, (addr, bits, host, guest)


def test_a_mask_admits_exactly_the_aligned_words_of_the_views():
    """``a & mask == 0`` holds exactly when ``a`` is aligned to the width
    and the word lies inside the views, ``0 <= a <= P - w``; on a heap
    shorter than the width no address passes, 0 included."""
    for memory_size in (*range(0, 70), 4095, 4096, 4097):
        views = heap_views(new_heap(memory_size))
        p = _view_limit(memory_size)
        for row in {**LOADS, **STORES}.values():
            w = row.size
            admitted = [a for a in range(-w - 3, p + 2 * w + 3)
                        if not a & views[row.mask]]
            assert admitted == list(range(0, p - w + 1, w)), (
                memory_size, row)
            if row.codec is not None:
                assert len(views[row.view]) == (p // w if p >= w else 0)


CAST_ROUND_TRIP = """\
  v1 = bits_itof v0
  v2 = bits_ftoi v1"""


@pytest.mark.parametrize("bits", [0x7FF0000000000001, 0xFFF4000000000123,
                                  0x7FF8000000000000])
def test_nan_payload_survives_the_scratch_word(bits):
    """``bits_ftoi(bits_itof(x))`` is ``x`` on the VM and both emit legs,
    for signalling NaNs too: the compiled casts write one view of the
    VM's scratch word and read the other, and no NaN is quieted."""
    module = Module(memory_size=0)
    module.add_function(parse_function(
        "func @f(v0: i64) -> i64 {\nblock0:\n"
        f"{CAST_ROUND_TRIP}\n  return v2\n}}"))
    compiled = compile_legs(module.functions["f"], module)
    assert VM(module).call("f", [bits]) == bits
    for leg, fn in compiled.items():
        vm = VM(module)
        vm.install_compiled({"f": fn})
        assert vm.call("f", [bits]) == bits, leg
    source = emit_function_source(module.functions["f"], module)[0]
    assert "XQ[0] = v0" in source and "v2 = XQ[0]" in source


# ---------------------------------------------------------------------------
# Completeness.
# ---------------------------------------------------------------------------

def test_tables_cover_exactly_their_opcodes():
    pure = {op for op, info in OPCODES.items()
            if info.pure and not info.is_load
            and op not in ("iconst", "fconst")}
    assert set(PURE_EXPRS) == set(PURE_FNS) == pure
    assert set(LOADS) == {op for op, i in OPCODES.items() if i.is_load}
    assert set(STORES) == {op for op, i in OPCODES.items() if i.is_store}
    for op, row in {**LOADS, **STORES}.items():
        value_type = (OPCODES[op].result if op in LOADS
                      else OPCODES[op].arg_types[1])
        assert row.float == (value_type is F64)
        assert row.size in (1, 2, 4, 8)


def test_the_traps_flag_is_the_rows():
    """``OpInfo.traps`` marks exactly the pure rows that raise on some
    edge operands, and each one's trap is decided by its last operand
    alone: the rule by which DCE may drop a dead one."""
    def traps(op, args):
        try:
            PURE_FNS[op](*args)
        except VMTrap:
            return True
        return False

    raising = set()
    for op, arg_types in _PURE_HARNESSES:
        for args in _grid_product(arg_types):
            if traps(op, args):
                raising.add(op)
            if OPCODES[op].traps:
                assert traps(op, args) == traps(op, args[-1:] * len(args))
    assert raising == {op for op, info in OPCODES.items() if info.traps}


def test_every_wide_memory_row_names_its_codec():
    """The width of an access is spelled as a ``struct`` format once,
    in the table's codecs; a row wider than a byte names the accessor
    (``unpack_from`` for a load, ``pack_into`` for a store) of the one
    that is exactly its size."""
    for table, method in ((LOADS, "unpack_from"), (STORES, "pack_into")):
        for op, row in table.items():
            if row.size == 1:
                assert row.codec is None, op
                continue
            accessor = HELPERS[row.codec]
            codec = accessor.__self__
            assert isinstance(codec, struct.Struct), op
            assert accessor == getattr(codec, method), op
            assert codec.size == row.size, op
            assert codec.format[0] == "<", op
            assert (codec.format[1:] == "d") == row.float, op


# ---------------------------------------------------------------------------
# Guards: the definition stays single.
# ---------------------------------------------------------------------------

CONSUMERS = ("vm/machine.py", "core/lattice.py",
             "backend/emitter.py", "backend/runtime.py")


def _parse(relpath):
    with open(os.path.join(SRC, "repro", relpath)) as handle:
        return ast.parse(handle.read())


@pytest.mark.parametrize("relpath", CONSUMERS)
def test_no_consumer_names_an_op(relpath):
    """Re-stating an op's meaning needs a branch on its name; every op
    name below is reachable only through the tables."""
    ops = set(PURE_EXPRS) | set(LOADS) | set(STORES)
    named = sorted({node.value for node in ast.walk(_parse(relpath))
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)} & ops)
    assert not named, f"{relpath} names ops the table owns: {named}"


def test_backend_runtime_defines_no_arithmetic():
    defined = {node.name for node in ast.walk(_parse("backend/runtime.py"))
               if isinstance(node, ast.FunctionDef)}
    # The trap raisers emitted code calls out of line, not arithmetic.
    assert defined == {"_exhaust", "_oof"}
    for name, helper in HELPERS.items():
        assert BACKEND_GLOBALS[name] is helper


def test_backend_spells_no_width_of_its_own():
    """Emitted code, the VM, the constant-memory fold and the module
    image reach memory through the table's precompiled codecs: no
    format-parsing ``struct`` function or ``int.from_bytes`` in the
    emitted code's globals, and neither backend source nor
    ``vm/machine.py``, ``core/lattice.py`` or ``ir/module.py`` spells a
    byte-conversion call or a ``"<`` format (none imports ``struct``:
    see ``test_only_semantics_imports_struct``)."""
    generic = (struct.unpack_from, struct.pack_into, struct.unpack,
               struct.pack, int.from_bytes)
    assert not [name for name, value in BACKEND_GLOBALS.items()
                if value in generic]
    for relpath in ("backend/emitter.py", "backend/runtime.py",
                    "vm/machine.py", "core/lattice.py", "ir/module.py"):
        with open(os.path.join(SRC, "repro", relpath)) as handle:
            text = handle.read()
        for needle in ("from_bytes", "to_bytes"):
            assert needle not in text, f"{relpath} contains {needle!r}"
        formats = re.findall(r"""["']<[A-Za-z]+["']""", text)
        assert not formats, f"{relpath} spells struct formats: {formats}"


def test_only_semantics_raises_the_access_trap():
    """An out-of-bounds access traps in the checked accessors alone: no
    other module builds the ``oob`` text, so guest and host accesses,
    interpreted or compiled, raise one text."""
    callers = sorted({
        relpath for relpath, text in _src_texts()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "oob_trap"
             or getattr(node.func, "attr", None) == "oob_trap")})
    assert callers == [os.path.join("repro", "ir", "semantics.py")]


def _src_texts():
    """``(path under src/, text)`` of every Python file of the package."""
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as handle:
                    yield os.path.relpath(path, SRC), handle.read()


def test_only_semantics_imports_struct():
    """A double's bits are computed in one place, ``_bits_ftoi`` and the
    codecs beside it; every constant identity (lattice, interning, the
    specializer's block cache, GVN, the request key) calls it."""
    importers = sorted(
        relpath for relpath, text in _src_texts()
        if any(isinstance(node, ast.Import)
               and any(alias.name == "struct" for alias in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "struct"
               for node in ast.walk(ast.parse(text))))
    assert importers == [os.path.join("repro", "ir", "semantics.py")]


def test_float_equality_machinery_is_gone():
    """With exact constant equality the meet needs no order of its own:
    the identity helper and the edge sort it forced stay deleted."""
    found = [(relpath, name) for relpath, text in _src_texts()
             for name in re.findall(
                 r"\b(_abs_equal|_edge_sort_key|_key_strs)\b", text)]
    assert not found


def test_lattice_keeps_only_the_thin_folder():
    defined = {node.name for node in _parse("core/lattice.py").body
               if isinstance(node, ast.FunctionDef)}
    assert defined == {"intern_const", "intern_counters", "fold_pure_op"}


def test_semantics_imports_nothing_above_ir():
    script = ("import sys, repro.ir.semantics\n"
              "print([m for m in sys.modules if m.startswith(("
              "'repro.vm', 'repro.core', 'repro.backend', "
              "'repro.pipeline'))])")
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# End to end: Math.floor of a non-finite value used to raise a host
# OverflowError/ValueError in all three copies.
# ---------------------------------------------------------------------------

NON_FINITE_FLOOR = """
print(Math.floor(1.0 / 0.0));
print(Math.floor(0.0 - 1.0 / 0.0));
print(Math.floor(0.0 / 0.0));
print(Math.floor(2.5));
"""


NAN_OVER_ZERO = """
var z = 0;
print((z / z) / 0);
"""


def test_nan_over_zero_end_to_end():
    """A NaN dividend over 0 is NaN, not an infinity, on the interpreter,
    the residual on the IR VM and compiled Python."""
    reference = JSRuntime(NAN_OVER_ZERO, "interp_ic")
    reference.run()
    assert reference.printed == ["nan"]
    for backend in ("vm", "py"):
        runtime = JSRuntime(NAN_OVER_ZERO, "wevaled_state",
                            options=SpecializeOptions(backend=backend))
        compiler = runtime.aot_compile()
        assert [r.error for r in compiler.processed if r.error] == []
        runtime.run()
        assert runtime.printed == reference.printed, backend


def test_math_floor_of_non_finite_end_to_end():
    reference = JSRuntime(NON_FINITE_FLOOR, "interp_ic")
    reference.run()
    assert reference.printed == ["inf", "-inf", "nan", "2"]
    for backend in ("vm", "py"):
        runtime = JSRuntime(NON_FINITE_FLOOR, "wevaled_state",
                            options=SpecializeOptions(backend=backend))
        compiler = runtime.aot_compile()
        assert [r.error for r in compiler.processed if r.error] == []
        runtime.run()
        assert runtime.printed == reference.printed, backend
