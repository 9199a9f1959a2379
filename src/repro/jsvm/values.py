"""NaN-boxed 64-bit values (SpiderMonkey-style).

Doubles are stored as their raw IEEE-754 bits.  Non-double values use
bit patterns that no canonical double operation produces: the top 16
bits select a tag in ``[0xFFF9, 0xFFFE]`` and the low 48 bits carry the
payload (heap address, function id, or boolean).

The paper's future-work section (S9.1) points out that NaN-box tag
checks are exactly the kind of pattern a known-bits optimizer can
exploit; here they are the guard conditions in IC stubs.
"""

from __future__ import annotations

import math

# One definition of a double's bits: the helpers the ``bits_ftoi`` /
# ``bits_itof`` rows restate inline.
from repro.ir.semantics import _bits_ftoi as box_double
from repro.ir.semantics import _bits_itof as unbox_double

TAG_SHIFT = 48
TAG_BOOL = 0xFFF9
TAG_NULL = 0xFFFA
TAG_UNDEFINED = 0xFFFB
TAG_OBJECT = 0xFFFC
TAG_FUNCTION = 0xFFFD
TAG_ARRAY = 0xFFFE

PAYLOAD_MASK = (1 << TAG_SHIFT) - 1

VALUE_TRUE = (TAG_BOOL << TAG_SHIFT) | 1
VALUE_FALSE = TAG_BOOL << TAG_SHIFT
VALUE_NULL = TAG_NULL << TAG_SHIFT
VALUE_UNDEFINED = TAG_UNDEFINED << TAG_SHIFT

# Sentinel returned by IC stubs whose guards fail; never a legal value
# (Python float operations never produce payload NaNs).
IC_FAIL = 0xFFFF000000000001


def box_bool(value: bool) -> int:
    return VALUE_TRUE if value else VALUE_FALSE


def box_function(func_id: int) -> int:
    return (TAG_FUNCTION << TAG_SHIFT) | func_id


def tag_of(bits: int) -> int:
    return bits >> TAG_SHIFT


def payload(bits: int) -> int:
    return bits & PAYLOAD_MASK


def describe(bits: int) -> str:
    """Debug/print rendering of a boxed value."""
    tag = tag_of(bits)
    if tag == TAG_BOOL:
        return "true" if payload(bits) else "false"
    if tag == TAG_NULL:
        return "null"
    if tag == TAG_UNDEFINED:
        return "undefined"
    if tag == TAG_OBJECT:
        return f"<object @{payload(bits):#x}>"
    if tag == TAG_ARRAY:
        return f"<array @{payload(bits):#x}>"
    if tag == TAG_FUNCTION:
        return f"<function #{payload(bits)}>"
    value = unbox_double(bits)
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(value)


def truthy(bits: int) -> bool:
    """Host-side JS truthiness (the interpreter implements the same
    logic inline)."""
    tag = tag_of(bits)
    if tag == TAG_BOOL:
        return payload(bits) != 0
    if tag in (TAG_NULL, TAG_UNDEFINED):
        return False
    if tag in (TAG_OBJECT, TAG_ARRAY, TAG_FUNCTION):
        return True
    value = unbox_double(bits)
    return value == value and value != 0.0  # NaN and ±0 are falsy
