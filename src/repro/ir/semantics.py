"""The IR's operational semantics: the one place an op's meaning is written.

Every pure op is one row of :data:`PURE_EXPRS` — its name and a Python
expression over the operands ``a``, ``b``(, ``c``).  The three
consumers derive from the row instead of restating it:

* the VM (:mod:`repro.vm.machine`) and the constant folder
  (:func:`repro.core.lattice.fold_pure_op`) call the function compiled
  from the row once at import (:data:`PURE_FNS`);
* the emitter (:mod:`repro.backend.emitter`) prints the row's text with
  ``v<n>`` operand names substituted, and the emitted code runs with
  :data:`HELPERS` as globals — so compiled code executes the very
  expression the VM does.

Values are Python ints in ``[0, 2**64)`` (the unsigned bit pattern) for
``i64`` and Python floats for ``f64``.  A row is written to be cheap
on CPython's specializing interpreter, since compiled code runs it
inline:

* a compare is ``1 if <cmp> else 0``, never a call: its value is an
  ``int`` 0 or 1, and the emitter tests the bare ``<cmp>`` when a
  branch is the compare's one use;
* a float row takes an inline fast path and calls its helper only for
  the exceptional operand — ``fdiv`` for a zero divisor, ``ftoi`` for
  an infinity or NaN (``a - a == 0.0`` holds exactly for the finite
  ones), which traps; ``ffloor`` keeps ``floor(-0.0) == +0.0`` with its
  ``+ 0.0``;
* a two-operand float row gives two NaN operands' result the payload
  of the first (``a + b if a == a else a + a``): the host's ``a + b``
  returns the second operand's payload until CPython specializes the
  bytecode and the first's after that, so without the rule a result
  would depend on how often its code had run.

The helpers below are the ops too long for one expression; a trapping
op raises :class:`VMTrap` (the folder reads that as "do not fold").

A sized load or store is one row of :data:`LOADS`/:data:`STORES`, the
only lowering of that access.  Its *effective address* is ``(base +
offset) mod 2**64``, like every other address arithmetic in the IR, so
``iadd``s of constants may be folded into an op's offset (and back)
without changing what it reads, writes or traps at.  Its checked
accessor (in :data:`HELPERS`, named by ``checked``) is the whole
access: it is handed the unwrapped sum, wraps it on its out-of-bounds
branch alone, and does the bounds check, :func:`oob_trap`'s text (of
the wrapped address), the codec, the sign extension and the store's
width mask.  The IR VM runs it for guest accesses and for the
host's word access (``VM.load_u64``/``store_u64``), and the
specializer's constant-memory fold runs it over the snapshot.  A row's
``text`` is the two lines compiled code prints for the access, which
the emitter formats: a mask test admits exactly the aligned in-bounds
addresses of the width to one subscript of a typed heap view
(``VQ[a >> 3]``; a byte is ``M[a]``), and every other address goes out
of line to the same checked accessor.  A wide row names its
precompiled :data:`CODECS` entry, the only place a width is a
``struct`` format; the same codecs are the NaN-box casts and the
module image's word access.  :data:`CASTS` names the scratch-word
views the compiled casts go through.

This module imports nothing above :mod:`repro.ir`.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.ir.instructions import MASK64, OPCODES, to_signed


class VMTrap(Exception):
    """Guest execution trapped (unreachable, bad memory access, etc.)."""


def oob_trap(op: str, addr: int) -> VMTrap:
    """The trap of the sized load or store ``op`` at an effective
    address (in ``[0, 2**64)``) out of the heap's bounds, raised before
    memory is touched."""
    return VMTrap(f"oob {op} at {addr:#x}")


# ---------------------------------------------------------------------------
# Helpers the rows call.
# ---------------------------------------------------------------------------

def _idiv_s(a: int, b: int) -> int:
    a = to_signed(a)
    b = to_signed(b)
    if b == 0:
        raise VMTrap("integer divide by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q & MASK64


def _idiv_u(a: int, b: int) -> int:
    if b == 0:
        raise VMTrap("integer divide by zero")
    return a // b


def _irem_s(a: int, b: int) -> int:
    a = to_signed(a)
    b = to_signed(b)
    if b == 0:
        raise VMTrap("integer remainder by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return (a - q * b) & MASK64


def _irem_u(a: int, b: int) -> int:
    if b == 0:
        raise VMTrap("integer remainder by zero")
    return a % b


def _ishr_s(a: int, s: int) -> int:
    return (to_signed(a) >> (s & 63)) & MASK64


def _ftoi(a: float) -> int:
    if math.isnan(a) or math.isinf(a):
        raise VMTrap("invalid float-to-int conversion")
    return int(a) & MASK64


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        # A NaN dividend keeps the bits it has over a nonzero divisor.
        if a != a:
            return a / 1.0
        return (math.nan if a == 0.0
                else math.copysign(math.inf, a) * math.copysign(1.0, b))
    return a / b


def _fsqrt(a: float) -> float:
    return math.sqrt(a) if a >= 0.0 else math.nan


def _sext(raw: int, bits: int) -> int:
    """Sign-extend the low ``bits`` of ``raw`` to an i64 bit pattern."""
    if raw >= 1 << (bits - 1):
        raw -= 1 << bits
    return raw & MASK64


# One precompiled little-endian codec per access width, and the bound
# methods of each that rows and emitted code call by name:
# ``_get<c>(buf, addr)[0]`` reads, ``_put<c>(buf, addr, value)`` writes.
# The NaN-box casts go through bytes: ``_pack<c>(value)`` one way, read
# back the other.
CODECS: Dict[str, struct.Struct] = {
    c: struct.Struct("<" + c) for c in "HIQd"}
_CODEC_FNS: Dict[str, Callable] = {}
for _c, _codec in CODECS.items():
    _CODEC_FNS["_get" + _c] = _codec.unpack_from
    _CODEC_FNS["_put" + _c] = _codec.pack_into
_CODEC_FNS["_packQ"] = _packQ = CODECS["Q"].pack
_CODEC_FNS["_packd"] = _packd = CODECS["d"].pack
_getQ, _getd = _CODEC_FNS["_getQ"], _CODEC_FNS["_getd"]


# A double's bits, both ways.  The ``bits_ftoi``/``bits_itof`` rows spell
# the same expressions inline (the op grid asserts helper == row); the
# functions are for host code (``jsvm.values``), the emitter's
# non-finite literals and the printer's NaN constants.
def _bits_ftoi(a: float) -> int:
    return _getQ(_packd(a))[0]


def _bits_itof(a: int) -> float:
    return _getd(_packQ(a))[0]


# The names a row may use besides its operands.
HELPERS: Dict[str, Callable] = {
    **_CODEC_FNS,
    "_abs": abs,
    "_idiv_s": _idiv_s,
    "_idiv_u": _idiv_u,
    "_irem_s": _irem_s,
    "_irem_u": _irem_u,
    "_ishr_s": _ishr_s,
    "_ftoi": _ftoi,
    "_fdiv": _fdiv,
    "_fsqrt": _fsqrt,
    "_bits_ftoi": _bits_ftoi,
    "_bits_itof": _bits_itof,
    "_sext": _sext,
}


# ---------------------------------------------------------------------------
# The pure-op table.  Signed compares use the sign-bias trick:
# a <_s b  <=>  (a ^ 2**63) <_u (b ^ 2**63).
# ---------------------------------------------------------------------------

PURE_EXPRS: Dict[str, str] = {
    "iadd": "(a + b) & 0xFFFFFFFFFFFFFFFF",
    "isub": "(a - b) & 0xFFFFFFFFFFFFFFFF",
    "imul": "(a * b) & 0xFFFFFFFFFFFFFFFF",
    "idiv_s": "_idiv_s(a, b)",
    "idiv_u": "_idiv_u(a, b)",
    "irem_s": "_irem_s(a, b)",
    "irem_u": "_irem_u(a, b)",
    "iand": "a & b",
    "ior": "a | b",
    "ixor": "a ^ b",
    "ishl": "(a << (b & 63)) & 0xFFFFFFFFFFFFFFFF",
    "ishr_s": "_ishr_s(a, b)",
    "ishr_u": "a >> (b & 63)",
    "ieq": "1 if a == b else 0",
    "ine": "1 if a != b else 0",
    "ilt_s": ("1 if (a ^ 0x8000000000000000) < (b ^ 0x8000000000000000)"
               " else 0"),
    "ilt_u": "1 if a < b else 0",
    "ile_s": ("1 if (a ^ 0x8000000000000000) <= (b ^ 0x8000000000000000)"
               " else 0"),
    "ile_u": "1 if a <= b else 0",
    "igt_s": ("1 if (a ^ 0x8000000000000000) > (b ^ 0x8000000000000000)"
               " else 0"),
    "igt_u": "1 if a > b else 0",
    "ige_s": ("1 if (a ^ 0x8000000000000000) >= (b ^ 0x8000000000000000)"
               " else 0"),
    "ige_u": "1 if a >= b else 0",
    "fadd": "a + b if a == a else a + a",
    "fsub": "a - b if a == a else a - a",
    "fmul": "a * b if a == a else a * a",
    "fdiv": "a / b if b else _fdiv(a, b)",
    "fneg": "-a",
    "fabs": "_abs(a)",
    "fsqrt": "_fsqrt(a)",
    "ffloor": "a // 1.0 + 0.0 if a - a == 0.0 else a",
    "feq": "1 if a == b else 0",
    "fne": "1 if a != b else 0",
    "flt": "1 if a < b else 0",
    "fle": "1 if a <= b else 0",
    "fgt": "1 if a > b else 0",
    "fge": "1 if a >= b else 0",
    "itof": "float(a - 0x10000000000000000 if a >> 63 else a)",
    "ftoi": "int(a) & 0xFFFFFFFFFFFFFFFF if a - a == 0.0 else _ftoi(a)",
    "bits_ftoi": "_getQ(_packd(a))[0]",
    "bits_itof": "_getd(_packQ(a))[0]",
    "select": "b if a else c",
}


def _compile_row(name: str, expr: str) -> Callable:
    params = ", ".join("abc"[:len(OPCODES[name].arg_types)])
    fn = eval(f"lambda {params}: {expr}", dict(HELPERS))
    fn.__name__ = fn.__qualname__ = name
    return fn


PURE_FNS: Dict[str, Callable] = {
    name: _compile_row(name, expr) for name, expr in PURE_EXPRS.items()}


# ---------------------------------------------------------------------------
# The memory-op table.
# ---------------------------------------------------------------------------

class MemOp(NamedTuple):
    size: int       # access width in bytes
    signed: bool    # loads: sign-extend the raw value to 64 bits
    float: bool     # the value is an f64, not an i64 bit pattern
    # The HELPERS name of the row's codec accessor (``_get<c>`` for a
    # load, ``_put<c>`` for a store); None for one byte, which is
    # ``M[a]``.
    codec: Optional[str]
    # The names the access reads: the heap view it subscripts with ``a
    # >> log2(size)`` (``M`` itself for one byte), the width's mask and
    # the HELPERS name of the row's checked accessor.
    view: str
    mask: str
    checked: str
    # The access: two lines over the address ``{a}``, a load's result
    # ``{r}`` and a store's value ``{v}``.  The first sends every
    # address the mask rejects to the checked accessor; the second is
    # the view's subscript, sign-extended for a signed load and masked
    # to the width for a narrow store.
    text: Tuple[str, str]


# The format character of each access width a row can have.
_WIDTH_FORMATS = {(2, False): "H", (4, False): "I", (8, False): "Q",
                  (8, True): "d"}


def _mem_rows(kind: str, specs: Dict[str, tuple]) -> Dict[str, MemOp]:
    """``op -> (size, signed, float)`` made into rows; ``kind`` is
    ``get`` for loads and ``put`` for stores."""
    rows = {}
    for op, (size, signed, is_float) in specs.items():
        c = _WIDTH_FORMATS.get((size, is_float))
        view, mask, checked = c and "V" + c or "M", f"_K{size}", "_" + op
        shift = size.bit_length() - 1
        slot = f"{view}[{{a}} >> {shift}]" if shift else f"{view}[{{a}}]"
        if kind == "get":
            text = (f"if {{a}} & {mask}: {{r}} = {checked}(M, {{a}})",
                    "else: {r} = " + (f"_sext({slot}, {size * 8})"
                                      if signed else slot))
        else:
            # An i64 or f64 is already 8 bytes wide; narrower stores
            # truncate.
            text = (f"if {{a}} & {mask}: {checked}(M, {{a}}, {{v}})",
                    f"else: {slot} = {{v}}"
                    + (f" & {(1 << size * 8) - 1:#x}" if size < 8 else ""))
        rows[op] = MemOp(size, signed, is_float, c and f"_{kind}{c}", view,
                         mask, checked, text)
    return rows


LOADS: Dict[str, MemOp] = _mem_rows("get", {
    "load8_u": (1, False, False),
    "load8_s": (1, True, False),
    "load16_u": (2, False, False),
    "load16_s": (2, True, False),
    "load32_u": (4, False, False),
    "load32_s": (4, True, False),
    "load64": (8, False, False),
    "loadf64": (8, False, True),
})
STORES: Dict[str, MemOp] = _mem_rows("put", {
    "store8": (1, False, False),
    "store16": (2, False, False),
    "store32": (4, False, False),
    "store64": (8, False, False),
    "storef64": (8, False, True),
})


# ---------------------------------------------------------------------------
# Heap access: the checked accessors and compiled code's views.
# ---------------------------------------------------------------------------

def _checked_load(op: str, row: MemOp) -> Callable:
    size, signed, get = row.size, row.signed, _CODEC_FNS.get(row.codec)

    def load(M, a):
        # The effective address is ``a mod 2**64``; only an ``a`` outside
        # the heap can differ from it, so only that branch wraps.
        if a < 0 or a + size > len(M):
            a &= MASK64
            if a + size > len(M):
                raise oob_trap(op, a)
        raw = M[a] if get is None else get(M, a)[0]
        return _sext(raw, size * 8) if signed else raw
    load.__name__ = load.__qualname__ = row.checked
    return load


def _checked_store(op: str, row: MemOp) -> Callable:
    # One byte is ``M[a] = value``.
    size, put = row.size, _CODEC_FNS.get(row.codec, operator.setitem)
    mask = None if row.float else (1 << size * 8) - 1

    def store(M, a, value):
        if a < 0 or a + size > len(M):
            a &= MASK64
            if a + size > len(M):
                raise oob_trap(op, a)
        put(M, a, value if mask is None else value & mask)
    store.__name__ = store.__qualname__ = row.checked
    return store


# Each row's whole access: what the IR VM, host word access and the
# constant-memory fold run, and compiled code's out-of-line path for
# every address its mask rejects (every address that traps among them).
for _op, _row in LOADS.items():
    HELPERS[_row.checked] = _checked_load(_op, _row)
for _op, _row in STORES.items():
    HELPERS[_row.checked] = _checked_store(_op, _row)


class _NoAddress:
    """The mask of a width no access may take the fast path at: ``a &
    mask`` is true for every address, 0 included (no integer mask can
    reject 0)."""

    def __rand__(self, a: int) -> int:
        return 1


_NO_ADDRESS = _NoAddress()


# The cast rows compiled code runs through the scratch word: op -> (the
# view the operand is written to, the view the result is read from).
CASTS: Dict[str, tuple] = {"bits_ftoi": ("Xd", "XQ"),
                           "bits_itof": ("XQ", "Xd")}


def heap_views(M) -> Dict[str, object]:
    """The names compiled code reaches a VM's heap ``M`` through, made
    once per heap (a heap is never resized or replaced).

    ``P`` is the largest power of two not above ``len(M)``.  Each wide
    row's view is ``M[:P]`` cast to its format, and each width ``w``'s
    mask is ``~(P - w)``: ``a & mask == 0`` exactly when ``a`` is
    ``w``-aligned and ``0 <= a <= P - w``, so the subscript is in bounds
    and ``a >> log2(w)`` is the element.  A width wider than the heap,
    and every width on a big-endian host (views are native-endian, the
    codecs little-endian), gets a mask that sends every address to the
    checked accessor.  ``XQ``/``Xd`` are one 8-byte scratch word seen as
    an integer and as a double, private to the VM that owns the heap."""
    n = len(M)
    p = 1 << (n.bit_length() - 1) if n else 0
    whole = memoryview(M)[:p]
    native = sys.byteorder == "little"
    views: Dict[str, object] = {}
    # A codec accessor's name and a view's name end in their format.
    for row in (*LOADS.values(), *STORES.values()):
        w = row.size
        views[row.mask] = ~(p - w) if native and p >= w else _NO_ADDRESS
        if row.codec is not None and row.view not in views:
            views[row.view] = whole[:p - p % w].cast(row.codec[-1])
    scratch = memoryview(bytearray(8))
    for view in CASTS["bits_itof"]:
        views[view] = scratch.cast(view[-1])
    return views
