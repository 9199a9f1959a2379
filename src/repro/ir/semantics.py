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
``i64`` and Python floats for ``f64``; comparisons yield 0 or 1.  The
helpers below are the ops too long for one expression; a trapping op
raises :class:`VMTrap` (the folder reads that as "do not fold").

Sized loads and stores keep their lowering in the VM and the emitter
(bounds check, counters, address arithmetic); what they share is the
row *and its codec*: :data:`LOADS`/:data:`STORES` hold one ``(size,
signed, float, codec)`` row per op, and a row wider than a byte names
the accessor of its precompiled :data:`CODECS` entry — the only place a
width is spelled as a ``struct`` format.  The same codecs are the NaN-box
casts (``bits_ftoi``/``bits_itof``) and the host's word access
(``VM.load_u64``/``store_u64``).

This module imports nothing above :mod:`repro.ir`.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, NamedTuple, Optional

from repro.ir.instructions import MASK64, OPCODES, to_signed


class VMTrap(Exception):
    """Guest execution trapped (unreachable, bad memory access, etc.)."""


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


def _itof(a: int) -> float:
    return float(to_signed(a))


def _ftoi(a: float) -> int:
    if math.isnan(a) or math.isinf(a):
        raise VMTrap("invalid float-to-int conversion")
    return int(a) & MASK64


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        return (math.nan if a == 0.0
                else math.copysign(math.inf, a) * math.copysign(1.0, b))
    return a / b


def _fsqrt(a: float) -> float:
    return math.sqrt(a) if a >= 0.0 else math.nan


def _ffloor(a: float) -> float:
    # IEEE floor: infinities and NaN are their own floor (math.floor
    # raises on them).
    return float(math.floor(a)) if math.isfinite(a) else a


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
    "_int": int,
    "_abs": abs,
    "_idiv_s": _idiv_s,
    "_idiv_u": _idiv_u,
    "_irem_s": _irem_s,
    "_irem_u": _irem_u,
    "_ishr_s": _ishr_s,
    "_itof": _itof,
    "_ftoi": _ftoi,
    "_fdiv": _fdiv,
    "_fsqrt": _fsqrt,
    "_ffloor": _ffloor,
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
    "ieq": "_int(a == b)",
    "ine": "_int(a != b)",
    "ilt_s": "_int((a ^ 0x8000000000000000) < (b ^ 0x8000000000000000))",
    "ilt_u": "_int(a < b)",
    "ile_s": "_int((a ^ 0x8000000000000000) <= (b ^ 0x8000000000000000))",
    "ile_u": "_int(a <= b)",
    "igt_s": "_int((a ^ 0x8000000000000000) > (b ^ 0x8000000000000000))",
    "igt_u": "_int(a > b)",
    "ige_s": "_int((a ^ 0x8000000000000000) >= (b ^ 0x8000000000000000))",
    "ige_u": "_int(a >= b)",
    "fadd": "a + b",
    "fsub": "a - b",
    "fmul": "a * b",
    "fdiv": "_fdiv(a, b)",
    "fneg": "-a",
    "fabs": "_abs(a)",
    "fsqrt": "_fsqrt(a)",
    "ffloor": "_ffloor(a)",
    "feq": "_int(a == b)",
    "fne": "_int(a != b)",
    "flt": "_int(a < b)",
    "fle": "_int(a <= b)",
    "fgt": "_int(a > b)",
    "fge": "_int(a >= b)",
    "itof": "_itof(a)",
    "ftoi": "_ftoi(a)",
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
    codec: Optional[str] = None


LOADS: Dict[str, MemOp] = {
    "load8_u": MemOp(1, False, False),
    "load8_s": MemOp(1, True, False),
    "load16_u": MemOp(2, False, False, "_getH"),
    "load16_s": MemOp(2, True, False, "_getH"),
    "load32_u": MemOp(4, False, False, "_getI"),
    "load32_s": MemOp(4, True, False, "_getI"),
    "load64": MemOp(8, False, False, "_getQ"),
    "loadf64": MemOp(8, False, True, "_getd"),
}
STORES: Dict[str, MemOp] = {
    "store8": MemOp(1, False, False),
    "store16": MemOp(2, False, False, "_putH"),
    "store32": MemOp(4, False, False, "_putI"),
    "store64": MemOp(8, False, False, "_putQ"),
    "storef64": MemOp(8, False, True, "_putd"),
}
