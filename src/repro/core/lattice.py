"""The constant-propagation abstract domain used by the specializer.

An abstract value is either :class:`Const` (a compile-time-known i64 or
f64, identified by its bit pattern) or :class:`Dyn` (a run-time value,
identified by the SSA value id it has in the *specialized* function being
built).  There is no explicit bottom: unreachable code is simply never
transcribed.

:class:`ConstMemoryImage` implements the "constant memory" interface of
S3.5/S3.6: the byte ranges promised constant by a specialization request,
backed by the snapshot taken at request time.  Loads whose (folded)
address lands entirely inside a constant range fold to constants — this
is the mechanism that erases the bytecode from the compiled result, by
running the load's row in :mod:`repro.ir.semantics` over the snapshot.

:func:`fold_pure_op` (shared by the specializer and ``opt/gvn.py``)
defines no arithmetic of its own: it calls the op's row in
:mod:`repro.ir.semantics`, the function the VM executes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.ir.semantics import HELPERS, PURE_FNS, MemOp, VMTrap, _bits_ftoi
from repro.ir.types import I64, Type


class Const:
    """A compile-time constant: int bit pattern (i64) or float (f64).

    Its identity is ``(bits, ty)``: the value for i64, ``_bits_ftoi``
    of it for f64.  So ``0.0 != -0.0`` and NaNs are equal by payload.

    Abstract values are compared billions of times across a large
    specialization (every meet touches every slot of every predecessor
    state), so both classes are slotted, hash-cached, and equipped with
    an identity fast path in ``__eq__``.  Combined with interning (see
    :func:`intern_const`), most equality checks reduce to a pointer
    comparison.
    """

    __slots__ = ("value", "ty", "bits", "_hash")

    def __init__(self, value: Union[int, float], ty: Type):
        assert isinstance(value, int if ty is I64 else float)
        self.value = value
        self.ty = ty
        self.bits = value if ty is I64 else _bits_ftoi(value)
        self._hash = hash((self.bits, ty))

    def __eq__(self, other):
        if self is other:
            return True
        return (type(other) is Const and self.bits == other.bits
                and self.ty is other.ty)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Const(value={self.value!r}, ty={self.ty!r})"


class Dyn:
    """A run-time value; ``vid`` is its id in the specialized function."""

    __slots__ = ("vid", "ty", "_hash")

    def __init__(self, vid: int, ty: Type):
        self.vid = vid
        self.ty = ty
        self._hash = hash((vid, ty))

    def __eq__(self, other):
        if self is other:
            return True
        return (type(other) is Dyn and self.vid == other.vid
                and self.ty is other.ty)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Dyn(vid={self.vid!r}, ty={self.ty!r})"


AbsVal = Union[Const, Dyn]


# ---------------------------------------------------------------------------
# Hash-consing of constants.
#
# The specializer re-creates the same small set of Const objects (opcode
# operands, pcs, flags, zeros) at nearly every transcription step.
# Interning makes those objects *identical*, so state equality checks,
# meets, and signature comparisons hit the ``is`` fast path instead of
# structural comparison.  The table is keyed by identity: an i64 by its
# value, an f64 by ``(bits, F64)``, a key no int equals.
#
# The hit/miss counters only ever grow; a specialization reports the
# delta over its own run (compilation is in-process and serial).
# ---------------------------------------------------------------------------

_CONST_INTERN: Dict[object, Const] = {}
_CONST_INTERN_CAP = 1 << 20  # safety valve, never expected in practice
_intern_hits = _intern_misses = 0


def intern_const(value: Union[int, float], ty: Type) -> Const:
    """Return the canonical :class:`Const` of ``(bits, ty)``."""
    global _intern_hits, _intern_misses
    key = value if ty is I64 else (_bits_ftoi(value), ty)
    cached = _CONST_INTERN.get(key)
    if cached is not None:
        _intern_hits += 1
        return cached
    if len(_CONST_INTERN) >= _CONST_INTERN_CAP:
        _CONST_INTERN.clear()
    cached = _CONST_INTERN[key] = Const(value, ty)
    _intern_misses += 1
    return cached


def intern_counters() -> Tuple[int, int]:
    """(hits, misses) of :func:`intern_const` so far in this process."""
    return _intern_hits, _intern_misses


ZERO = intern_const(0, I64)


class ConstMemoryImage:
    """Constant-memory oracle: snapshot bytes + promised-constant ranges."""

    def __init__(self, snapshot: bytes,
                 ranges: Optional[List[Tuple[int, int]]] = None):
        self.snapshot = snapshot
        self.ranges: List[Tuple[int, int]] = []  # (start, end) half-open
        for start, length in (ranges or []):
            self.add_range(start, length)

    def add_range(self, start: int, length: int) -> None:
        if length <= 0:
            return
        end = start + length
        if start < 0 or end > len(self.snapshot):
            raise ValueError(
                f"constant range [{start:#x}, {end:#x}) outside snapshot")
        self.ranges.append((start, end))

    def contains(self, addr: int, size: int) -> bool:
        return any(start <= addr and addr + size <= end
                   for start, end in self.ranges)

    def read(self, addr: int, row: MemOp) -> Optional[Union[int, float]]:
        """What the load ``row`` reads at ``addr`` (its checked accessor
        over the snapshot), if the whole access is in constant memory."""
        if not self.contains(addr, row.size):
            return None
        return HELPERS[row.checked](self.snapshot, addr)


def fold_pure_op(op: str, imm: object,
                 args: List[Union[int, float]]) -> Optional[Union[int, float]]:
    """Fold a pure op over constant operand values, or return None.

    The value is whatever the op's row in :mod:`repro.ir.semantics`
    computes — the function the VM runs.  An op that would trap
    (division by zero, invalid float->int) is left to run.
    """
    if op == "iconst" or op == "fconst":
        return imm
    fn = PURE_FNS.get(op)
    if fn is None:
        return None
    try:
        return fn(*args)
    except VMTrap:
        return None
