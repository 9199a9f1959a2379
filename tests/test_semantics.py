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
* **memory grid** — every sized load/store at in-range, last-byte,
  straddling, out-of-bounds and negative addresses, with and without a
  static offset, on heaps of 0, 8, 64 and 4095/4096/4097 bytes (empty,
  one word, and either side of a page — the heap is a mapping, which
  cannot be empty and raises where a ``bytearray`` would grow): VM ≡
  both emit legs (value, trap text, memory image afterwards), and
  integer loads ≡ ``ConstMemoryImage.read`` (the specializer's fold of
  the same access);
* **completeness** — the tables cover exactly the opcodes they claim;
* **guards** — no consumer names a pure or memory op in a string
  literal (a fourth copy would have to), ``backend/runtime.py`` defines
  no helper of its own, and ``repro.ir.semantics`` imports nothing above
  ``repro.ir``;
* the end-to-end regression the single definition fixed
  (``Math.floor`` of ±inf/NaN).
"""

import ast
import math
import os
import re
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.runtime import BACKEND_GLOBALS
from repro.core.lattice import ConstMemoryImage, fold_pure_op
from repro.core.specialize import SpecializeOptions
from repro.ir import F64, I64
from repro.ir.instructions import OPCODES
from repro.ir.semantics import HELPERS, LOADS, PURE_EXPRS, PURE_FNS, STORES
from repro.jsvm import JSRuntime
from repro.vm import VM, VMTrap

from tests.helpers import EMIT_LEGS, compile_legs, single_op_module

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
MASK64 = (1 << 64) - 1

INT_GRID = (0, 1, 2, 63, 64, 65, (1 << 32) - 1, 1 << 32,
            (1 << 63) - 1, 1 << 63, (1 << 63) + 1, MASK64)
FLOAT_GRID = (0.0, -0.0, 1.0, -1.5, 0.5, -0.5, math.inf, -math.inf,
              math.nan, float(1 << 63), -float(1 << 63), float(1 << 64),
              5e-324, 1.7976931348623157e308)


def _key(value):
    """A comparison key that tells -0.0 from 0.0, an int from a float
    and a bool from an int, and makes every NaN equal."""
    if type(value) is float:
        return ("nan",) if value != value else ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


class _Harness:
    """One single-instruction function
    (:func:`tests.helpers.single_op_module`), runnable on the plain VM
    and as Python emitted on each leg."""

    def __init__(self, op, arg_types, result_type, imm=None,
                 memory_size=64):
        self.module = single_op_module(op, arg_types, result_type, imm,
                                       memory_size)
        self.compiled = {mode: compiled.pyfunc for mode, compiled
                         in compile_legs(self.module.functions["f"],
                                         self.module).items()}

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


def test_ffloor_is_ieee_on_non_finite():
    floor = PURE_FNS["ffloor"]
    assert floor(math.inf) == math.inf
    assert floor(-math.inf) == -math.inf
    assert math.isnan(floor(math.nan))
    assert floor(-1.5) == -2.0 and floor(1.5) == 1.0


# ---------------------------------------------------------------------------
# Memory ops.
# ---------------------------------------------------------------------------

# Empty, one word, a few words, and either side of a page boundary.
MEMORY_SIZES = (0, 8, 64, 4095, 4096, 4097)
OFFSETS = (0, 8, -8)


def _image(memory_size):
    """Bytes of both signs from address 0 on (0x5B, 0x80, 0xA5, ...), so
    every signed load is exercised on negative and non-negative values."""
    return bytes((i * 37 + 0x5B) & 0xFF for i in range(memory_size))


def _addresses(memory_size, size, offset):
    """In-range, last valid, first invalid (straddling the end), the
    last byte, far out, and (through a negative effective address)
    below zero."""
    last = memory_size - size - offset
    return sorted({a for a in (0, 1, 17, last - 1, last, last + 1,
                               memory_size - 1 - offset, memory_size,
                               1 << 32, MASK64, -offset, -offset - 1)
                   if 0 <= a <= MASK64})


@pytest.mark.parametrize("op", sorted(LOADS))
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("memory_size", MEMORY_SIZES)
def test_load_grid(op, offset, memory_size):
    row = LOADS[op]
    harness = _Harness(op, (I64,), OPCODES[op].result, imm=offset,
                       memory_size=memory_size)
    memory = _image(memory_size)
    image = ConstMemoryImage(memory, [(0, memory_size)])
    traps = 0
    for addr in _addresses(memory_size, row.size, offset):
        legs = harness.run((addr,), memory)
        vm = legs["vm"]
        for mode in EMIT_LEGS:
            assert legs[mode] == vm, (
                f"{op}+{offset} @{addr:#x}: vm={vm!r} {mode}={legs[mode]!r}")
        assert vm[2] == memory
        effective = addr + offset
        if 0 <= effective <= memory_size - row.size:
            assert vm[0] == "ok"
            folded = (image.read_f64(effective) if row.float else
                      image.read(effective, row.size, row.signed))
            assert _key(folded) == vm[1], (
                f"{op}+{offset} @{addr:#x}: vm={vm!r} image={folded!r}")
        else:
            traps += 1
            assert vm[:2] == ("trap", f"oob {op} at {effective:#x}")
    assert traps >= 3


@pytest.mark.parametrize("op", sorted(STORES))
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("memory_size", MEMORY_SIZES)
def test_store_grid(op, offset, memory_size):
    row = STORES[op]
    value_type = F64 if row.float else I64
    harness = _Harness(op, (I64, value_type), None, imm=offset,
                       memory_size=memory_size)
    memory = _image(memory_size)
    traps = 0
    for addr in _addresses(memory_size, row.size, offset):
        for value in _grid(value_type):
            legs = harness.run((addr, value), memory)
            vm = legs["vm"]
            for mode in EMIT_LEGS:
                assert legs[mode] == vm, (
                    f"{op}+{offset} @{addr:#x} <- {value!r}: "
                    f"vm={vm!r} {mode}={legs[mode]!r}")
            effective = addr + offset
            if 0 <= effective <= memory_size - row.size:
                stored = (struct.pack("<d", value) if row.float else
                          value.to_bytes(8, "little")[:row.size])
                expected = bytearray(memory)
                expected[effective:effective + row.size] = stored
                assert vm[0] == "ok" and vm[2] == bytes(expected)
            else:
                traps += 1
                assert vm == ("trap", f"oob {op} at {effective:#x}",
                              memory)
    assert traps >= 3


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

CONSUMERS = ("vm/machine.py", "core/lattice.py", "opt/fold.py",
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
    assert defined == {"_exhaust"}
    for name, helper in HELPERS.items():
        assert BACKEND_GLOBALS[name] is helper


def test_backend_spells_no_width_of_its_own():
    """Emitted code and the VM reach memory through the table's
    precompiled codecs: no format-parsing ``struct`` function or
    ``int.from_bytes`` in the emitted code's globals, and neither backend
    source nor ``vm/machine.py`` imports ``struct``, spells a
    byte-conversion call or a ``"<`` format."""
    generic = (struct.unpack_from, struct.pack_into, struct.unpack,
               struct.pack, int.from_bytes)
    assert not [name for name, value in BACKEND_GLOBALS.items()
                if value in generic]
    for relpath in ("backend/emitter.py", "backend/runtime.py",
                    "vm/machine.py"):
        with open(os.path.join(SRC, "repro", relpath)) as handle:
            text = handle.read()
        imported = {alias.name for node in ast.walk(ast.parse(text))
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(ast.parse(text))
                     if isinstance(node, ast.ImportFrom)}
        assert "struct" not in imported, f"{relpath} imports struct"
        for needle in ("from_bytes", "to_bytes"):
            assert needle not in text, f"{relpath} contains {needle!r}"
        formats = re.findall(r"""["']<[A-Za-z]+["']""", text)
        assert not formats, f"{relpath} spells struct formats: {formats}"


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
