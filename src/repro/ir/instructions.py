"""Instructions, terminators, and the opcode table.

Values are plain integer ids allocated by the owning :class:`Function`.
An :class:`Instr` is a non-terminator operation; control flow is expressed
exclusively through the terminator classes (:class:`Jump`, :class:`BrIf`,
:class:`BrTable`, :class:`Ret`, :class:`Trap`), each of which names its
successor blocks explicitly via :class:`BlockCall` (a target block plus
the SSA values passed to its block parameters).  The arm a branch takes
on a known selector is its ``taken`` (the VM, the oracle, spells its own).

Integer semantics: ``i64`` values are stored as Python ints in
``[0, 2**64)`` (i.e. the unsigned bit pattern).  Signed operators
reinterpret via :func:`to_signed`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

from repro.ir.types import Type, I64, F64

MASK64 = (1 << 64) - 1


def wrap_i64(value: int) -> int:
    """Wrap an arbitrary Python int to the unsigned 64-bit bit pattern."""
    return value & MASK64


def to_signed(value: int) -> int:
    """Reinterpret an unsigned 64-bit bit pattern as a signed integer."""
    value &= MASK64
    if value >= 1 << 63:
        return value - (1 << 64)
    return value


@dataclasses.dataclass(frozen=True)
class OpInfo:
    """Static description of an opcode.

    ``arg_types`` may contain ``None`` entries for polymorphic operands
    (currently only ``select``'s value operands).  ``result`` is the result
    type, ``None`` for void ops, or the string ``"poly"`` when the result
    type follows the polymorphic operands.  ``pure`` ops have no side
    effects and may be removed when dead or folded to constants, except
    the ``traps`` ones, whose row in :mod:`repro.ir.semantics` can
    raise: a dead one goes only if its operands rule the trap out, which
    its last operand alone decides (a zero divisor, a NaN or infinite
    float).
    """

    name: str
    arg_types: tuple
    result: Union[Type, str, None]
    pure: bool = True
    traps: bool = False
    is_load: bool = False
    is_store: bool = False
    is_call: bool = False


def _binop_i(name: str, traps: bool = False) -> OpInfo:
    return OpInfo(name, (I64, I64), I64, traps=traps)


def _binop_f(name: str) -> OpInfo:
    return OpInfo(name, (F64, F64), F64)


def _cmp_f(name: str) -> OpInfo:
    return OpInfo(name, (F64, F64), I64)


_OP_LIST = [
    # Constants.  imm = int (unsigned bit pattern) or float.
    OpInfo("iconst", (), I64),
    OpInfo("fconst", (), F64),
    # Integer arithmetic / bitwise.
    _binop_i("iadd"),
    _binop_i("isub"),
    _binop_i("imul"),
    _binop_i("idiv_s", traps=True),
    _binop_i("idiv_u", traps=True),
    _binop_i("irem_s", traps=True),
    _binop_i("irem_u", traps=True),
    _binop_i("iand"),
    _binop_i("ior"),
    _binop_i("ixor"),
    _binop_i("ishl"),
    _binop_i("ishr_s"),
    _binop_i("ishr_u"),
    # Integer comparisons (result is 0 or 1).
    _binop_i("ieq"),
    _binop_i("ine"),
    _binop_i("ilt_s"),
    _binop_i("ilt_u"),
    _binop_i("ile_s"),
    _binop_i("ile_u"),
    _binop_i("igt_s"),
    _binop_i("igt_u"),
    _binop_i("ige_s"),
    _binop_i("ige_u"),
    # Float arithmetic.
    _binop_f("fadd"),
    _binop_f("fsub"),
    _binop_f("fmul"),
    _binop_f("fdiv"),
    OpInfo("fneg", (F64,), F64),
    OpInfo("fabs", (F64,), F64),
    OpInfo("fsqrt", (F64,), F64),
    OpInfo("ffloor", (F64,), F64),
    # Float comparisons.
    _cmp_f("feq"),
    _cmp_f("fne"),
    _cmp_f("flt"),
    _cmp_f("fle"),
    _cmp_f("fgt"),
    _cmp_f("fge"),
    # Conversions.
    OpInfo("itof", (I64,), F64),   # signed int -> float
    OpInfo("ftoi", (F64,), I64, traps=True),  # truncate toward zero -> signed
    OpInfo("bits_ftoi", (F64,), I64),  # reinterpret bits
    OpInfo("bits_itof", (I64,), F64),  # reinterpret bits
    # Select: args (cond, if_true, if_false); value operands polymorphic.
    OpInfo("select", (I64, None, None), "poly"),
    # Memory.  imm = static byte offset added to the address operand.
    OpInfo("load8_u", (I64,), I64, pure=False, is_load=True),
    OpInfo("load8_s", (I64,), I64, pure=False, is_load=True),
    OpInfo("load16_u", (I64,), I64, pure=False, is_load=True),
    OpInfo("load16_s", (I64,), I64, pure=False, is_load=True),
    OpInfo("load32_u", (I64,), I64, pure=False, is_load=True),
    OpInfo("load32_s", (I64,), I64, pure=False, is_load=True),
    OpInfo("load64", (I64,), I64, pure=False, is_load=True),
    OpInfo("loadf64", (I64,), F64, pure=False, is_load=True),
    OpInfo("store8", (I64, I64), None, pure=False, is_store=True),
    OpInfo("store16", (I64, I64), None, pure=False, is_store=True),
    OpInfo("store32", (I64, I64), None, pure=False, is_store=True),
    OpInfo("store64", (I64, I64), None, pure=False, is_store=True),
    OpInfo("storef64", (I64, F64), None, pure=False, is_store=True),
    # Calls.  ``call``: imm = callee name, result type checked against the
    # module.  ``call_indirect``: imm = Signature; args[0] is the table
    # index.  Result type is stored on the instruction itself.
    OpInfo("call", (), "dynamic", pure=False, is_call=True),
    OpInfo("call_indirect", (), "dynamic", pure=False, is_call=True),
    # Globals (all i64).  imm = global name.
    OpInfo("global_get", (), I64, pure=False),
    OpInfo("global_set", (I64,), None, pure=False),
    # Speculation guard.  Two immediate forms:
    #
    # * ``int`` — an *entry* guard: the expected i64 constant (entry
    #   speculation).  Falls through when the operand equals the
    #   immediate; otherwise the activation is abandoned (GuardFailed)
    #   and the call deoptimizes to the function's registered generic
    #   fallback.  Re-running the generic function is only sound while
    #   nothing observable has happened yet, so the verifier holds it to
    #   the entry block — which no edge may enter — ahead of any
    #   store/call/global_set there (pure ops and loads may precede it;
    #   their counter effects are rolled back on deopt).
    # * ``(site, (v1, ..., vk))`` — an inline *site* guard: falls
    #   through when the operand is a member of the value set; on a miss
    #   it notifies the VM's site-miss hook and still falls through, into
    #   the out-of-line call the inliner kept behind it (see
    #   repro.opt.inline).  Nothing is abandoned, so it may sit anywhere.
    OpInfo("guard", (I64,), None, pure=False),
]

OPCODES = {info.name: info for info in _OP_LIST}


@dataclasses.dataclass
class Instr:
    """A non-terminator instruction.

    ``result`` is the defined value id or ``None`` for void ops.  ``imm``
    holds the static immediate: the constant for ``iconst``/``fconst``,
    the byte offset for memory ops, the callee name for ``call``, the
    :class:`~repro.ir.function.Signature` for ``call_indirect``, or the
    global name for global ops.
    """

    op: str
    result: Optional[int]
    args: tuple
    imm: object = None
    result_type: Optional[Type] = None

    def info(self) -> OpInfo:
        return OPCODES[self.op]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        res = f"v{self.result} = " if self.result is not None else ""
        args = ", ".join(f"v{a}" for a in self.args)
        imm = f" [{self.imm!r}]" if self.imm is not None else ""
        return f"{res}{self.op} {args}{imm}"


@dataclasses.dataclass
class BlockCall:
    """A CFG edge: target block id plus arguments for its parameters."""

    block: int
    args: tuple = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        args = ", ".join(f"v{a}" for a in self.args)
        return f"block{self.block}({args})"


@dataclasses.dataclass
class Jump:
    """Unconditional branch."""

    target: BlockCall

    def targets(self) -> Sequence[BlockCall]:
        return (self.target,)


@dataclasses.dataclass
class BrIf:
    """Conditional branch: taken when ``cond`` (i64) is non-zero."""

    cond: int
    if_true: BlockCall
    if_false: BlockCall

    def targets(self) -> Sequence[BlockCall]:
        return (self.if_true, self.if_false)

    @property
    def selector(self) -> int:
        return self.cond

    def taken(self, value: int) -> BlockCall:
        """The arm taken when ``cond`` is ``value``."""
        return self.if_true if value != 0 else self.if_false


@dataclasses.dataclass
class BrTable:
    """Multi-way branch on ``index``; out-of-range goes to ``default``."""

    index: int
    cases: list
    default: BlockCall

    def targets(self) -> Sequence[BlockCall]:
        return tuple(self.cases) + (self.default,)

    @property
    def selector(self) -> int:
        return self.index

    def taken(self, value: int) -> BlockCall:
        """The arm taken when ``index`` is ``value``."""
        return (self.cases[value] if 0 <= value < len(self.cases)
                else self.default)


@dataclasses.dataclass
class Ret:
    """Function return; ``args`` must match the function's result types."""

    args: tuple = ()

    def targets(self) -> Sequence[BlockCall]:
        return ()


@dataclasses.dataclass
class Trap:
    """Abort execution with a message (Wasm ``unreachable``)."""

    message: str = "trap"

    def targets(self) -> Sequence[BlockCall]:
        return ()


Terminator = Union[Jump, BrIf, BrTable, Ret, Trap]


def terminator_values(term: Terminator):
    """Yield every SSA value id referenced by a terminator."""
    if isinstance(term, Jump):
        yield from term.target.args
    elif isinstance(term, BrIf):
        yield term.cond
        yield from term.if_true.args
        yield from term.if_false.args
    elif isinstance(term, BrTable):
        yield term.index
        for case in term.cases:
            yield from case.args
        yield from term.default.args
    elif isinstance(term, Ret):
        yield from term.args


def _same(x: int) -> int:
    return x


def map_terminator(term: Optional[Terminator], value=_same,
                   block=_same) -> Optional[Terminator]:
    """A copy of ``term`` with every value id mapped by ``value`` and
    every target block id by ``block`` (both kept by default); a missing
    terminator stays missing.  The one terminator rewrite: cloning,
    renumbering, value substitution and the inliner's splice use it."""
    if term is None:
        return None

    def call(c: BlockCall) -> BlockCall:
        return BlockCall(block(c.block), tuple(map(value, c.args)))

    if isinstance(term, Jump):
        return Jump(call(term.target))
    if isinstance(term, BrIf):
        return BrIf(value(term.cond), call(term.if_true), call(term.if_false))
    if isinstance(term, BrTable):
        return BrTable(value(term.index), [call(c) for c in term.cases],
                       call(term.default))
    if isinstance(term, Ret):
        return Ret(tuple(map(value, term.args)))
    if isinstance(term, Trap):
        return Trap(term.message)
    raise TypeError(f"not a terminator: {term!r}")
