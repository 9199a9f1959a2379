"""Parsing printed IR back into functions.

:func:`~repro.ir.printer.print_function`'s text is the one IR text (the
artifact store keeps a residual as its print), and
``print_function(parse_function(text, module), order) == text``.  The
entry is the first block printed.  A ``call``'s result type, the one
type the text does not carry, is its callee's in ``module`` (or the
function's own, when it calls itself); every other type, and a memory
op's offset 0 (printed as nothing), follows from ``OPCODES``.  Anything
malformed raises :class:`IRParseError`; what makes IR valid is the
verifier's to check.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from repro.ir.function import Block, Function, Signature
from repro.ir.instructions import (
    OPCODES, BlockCall, BrIf, BrTable, Instr, Jump, Ret, Trap)
from repro.ir.semantics import _bits_itof
from repro.ir.types import Type


class IRParseError(Exception):
    """The text is not one :func:`print_function` writes."""


_TYPES = {ty.value: ty for ty in Type}
_T = r"block\d+(?:\(v\d+(?:, v\d+)*\))?"
_TARGETS = re.compile(f"{_T}(?:, {_T})*")
_TARGET = re.compile(r"block(\d+)(?:\(([^)]*)\))?")
_SIG = re.compile(r"sig\(([^)]*)\)(?: -> (\w+))? ?(.*)")


def _values(text: str) -> tuple:
    """``v1, v2`` as ``(1, 2)``; nothing as ``()``."""
    if not text:
        return ()
    if text[0] != "v":
        raise IRParseError(f"expected values, got {text!r}")
    return tuple(map(int, text[1:].split(", v")))


def _typed(text: str) -> list:
    """``v1: i64, v2: f64`` as ``[(1, I64), (2, F64)]``."""
    pairs = (item.split(": ") for item in text.split(", ")) if text else ()
    return [(_values(value)[0], _TYPES[name]) for value, name in pairs]


def _targets(text: str) -> list:
    """``block1, block2(v3)`` as block calls."""
    if not _TARGETS.fullmatch(text):
        raise IRParseError(f"bad branch targets {text!r}")
    return [BlockCall(int(block), _values(args))
            for block, args in _TARGET.findall(text)]


def _terminator(line: str):
    kind, _, rest = line.partition(" ")
    if kind == "jump":
        (target,) = _targets(rest)
        return Jump(target)
    if kind == "br_if":
        cond, _, rest = rest.partition(", ")
        if_true, if_false = _targets(rest)
        return BrIf(_values(cond)[0], if_true, if_false)
    if kind == "br_table":
        index, _, rest = rest.partition(", [")
        cases, _, default = rest.partition("], default ")
        (default,) = _targets(default)
        return BrTable(_values(index)[0], _targets(cases) if cases else [],
                       default)
    if kind == "return":
        return Ret(_values(rest))
    if kind == "trap" and isinstance(message := ast.literal_eval(rest), str):
        return Trap(message)
    raise IRParseError(f"unknown terminator {line!r}")


def _fconst(text: str) -> float:
    bits = text[:4] == "nan:" and len(text) == 22
    value = _bits_itof(int(text[4:], 16)) if bits else float(text)
    if (value != value) != bits:
        raise IRParseError(f"bad fconst {text!r}: a NaN prints its bits")
    return value


def _instr(line: str, types: dict, signature_of, selects: list) -> Instr:
    lhs, eq, rhs = line.partition(" = ")
    result, line = (_values(lhs)[0], rhs) if eq else (None, line)
    op, _, rest = line.partition(" ")
    info = OPCODES.get(op)
    if info is None:
        raise IRParseError(f"unknown opcode {op!r}")
    imm, rtype = None, info.result
    if info.is_load or info.is_store:
        imm = 0
        if rest[:1] == "+":
            offset, _, rest = rest[1:].partition(" ")
            imm = int(offset)
    elif op in ("iconst", "fconst"):
        imm, rest = int(rest) if op == "iconst" else _fconst(rest), ""
    elif op == "call_indirect":
        match = _SIG.fullmatch(rest)
        if match is None:
            raise IRParseError(f"bad call_indirect {line!r}")
        params, results, rest = match.groups()
        imm = Signature(tuple(_TYPES[ty] for ty in params.split(", ")
                              if params), (_TYPES[results],) if results else ())
        rtype = imm.results[0] if result is not None else None
    elif op == "guard":
        imm, _, rest = rest.removeprefix("expect ").rpartition(" ")
        # An entry guard's constant or a site guard's (site, values).
        imm = ast.literal_eval(imm) if imm[:1] == "(" else int(imm)
    elif op in ("call", "global_get", "global_set"):  # a name, operands
        name, _, rest = rest.partition(" ")
        if name[:1] != ("@" if op == "call" else "$"):
            raise IRParseError(f"bad {op} {line!r}")
        imm = name[1:]
        if op == "call":  # the callee's result type
            rtype = None if result is None else \
                signature_of(imm).results[0]
    if (result is None) != (rtype is None):
        raise IRParseError(f"{op}'s result does not match its type")
    instr = Instr(op, result, _values(rest), imm,
                  None if rtype == "poly" else rtype)
    if rtype == "poly":
        selects.append(instr)
    elif result is not None:
        types[result] = rtype
    return instr


def _header(text: str):
    """The header line's name, typed entry parameters and signature."""
    header, _, _ = text.partition("\n")
    if text[-2:] != "\n}" or header[:6] != "func @" or header[-2:] != " {":
        raise IRParseError("truncated, or not a function")
    fname, _, rest = header[6:-2].partition("(")
    params, sep, results = rest.partition(")")
    if not sep or (results and results[:4] != " -> "):
        raise IRParseError(f"bad function header {header!r}")
    params = _typed(params)
    return fname, params, Signature(
        tuple(ty for _, ty in params),
        tuple(_TYPES[ty] for ty in results[4:].split(", ") if results))


def _parse(text: str, module, name: Optional[str]) -> Function:
    lines = text.split("\n")
    fname, params, sig = _header(text)
    func = Function(name or fname, sig)
    types, blocks, selects = func.value_types, func.blocks, []

    def signature_of(callee):
        if callee == fname:
            return func.sig
        if module is None:
            raise IRParseError("a call's result type needs the module")
        return module.signature_of(callee)

    block = pending = None
    for line in lines[1:-1]:
        if line[:2] == "  ":
            if pending is not None:
                block.instrs.append(_instr(pending, types, signature_of,
                                          selects))
            elif block is None:
                raise IRParseError("an instruction outside a block")
            pending = line[2:]
            continue
        if block is not None:
            if pending is None:
                raise IRParseError(f"block{block.id} has no terminator")
            block.terminator = _terminator(pending)
        if line[:5] != "block" or line[-1:] != ":":
            raise IRParseError(f"expected a block label, got {line!r}")
        bid, sep, label_params = line[5:-1].partition("(")
        block, pending = Block(int(bid), _typed(label_params[:-1])), None
        if block.id in blocks:
            raise IRParseError(f"duplicate block id {block.id}")
        if func.entry is None:
            if sep:
                raise IRParseError("the entry's parameters are the header's")
            func.entry, block.params = block.id, params
        blocks[block.id] = block
        types.update(block.params)
    if pending is None:
        raise IRParseError("no entry block, or a last block with no lines")
    block.terminator = _terminator(pending)
    while selects:  # a select's type is its operands'
        ready = [instr for instr in selects if instr.args[1] in types]
        if not ready:
            raise IRParseError("a select operand has no type")
        for instr in ready:
            instr.result_type = types[instr.result] = types[instr.args[1]]
        selects = [instr for instr in selects if instr.result_type is None]
    func._next_value = max(types, default=-1) + 1
    func._next_block = max(blocks) + 1
    return func


def parse_function(text: str, module=None,
                   name: Optional[str] = None) -> Function:
    """Read a function printed by :func:`print_function`; ``module``
    gives a ``call``'s result type and ``name`` overrides the printed
    name.  Raises :class:`IRParseError` on anything malformed."""
    try:
        return _parse(text, module, name)
    except IRParseError:
        raise
    except (ValueError, KeyError, IndexError, SyntaxError) as exc:
        raise IRParseError(f"malformed IR text: {exc!r}") from exc


def parse_header(text: str) -> Tuple[str, Signature]:
    """A printed function's name and signature, from its header line
    alone (the body is not read).  Raises :class:`IRParseError`."""
    try:
        fname, _, sig = _header(text)
    except (ValueError, KeyError, IndexError) as exc:
        raise IRParseError(f"malformed IR header: {exc!r}") from exc
    return fname, sig


_CALL = re.compile(r"^  (?:v\d+ = )?call @(\S+)", re.MULTILINE)


def direct_callees(text: str) -> List[str]:
    """The names a printed function ``call``s directly, each once, in
    text order — the ``imm`` of every ``call`` :func:`parse_function`
    would build, without building it."""
    return list(dict.fromkeys(_CALL.findall(text)))
