"""Structured (de)serialization of IR functions for the artifact store.

The on-disk artifact cache persists residual functions across processes,
so the in-memory :class:`~repro.ir.function.Function` graph must survive
a round trip through JSON.  The encoding is deliberately dumb and
explicit — every block, instruction, and terminator keeps its ids — so a
deserialized function is structurally identical to the original (the
printed IR text is byte-identical, which the pipeline tests assert).

Robustness contract: :func:`function_from_dict` raises
:class:`SerializationError` on *any* malformed input (wrong shapes,
unknown terminator tags, bad types).  The artifact store treats that —
like a version or fingerprint mismatch — as a cache miss and silently
recompiles; a corrupt artifact must never crash a build or smuggle in a
mangled function.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.function import Block, Function, Signature
from repro.ir.instructions import (
    BlockCall,
    BrIf,
    BrTable,
    Instr,
    Jump,
    Ret,
    Trap,
)
from repro.ir.types import Type


class SerializationError(Exception):
    """The payload does not encode a function (corrupt artifact)."""


def _ty_str(ty: Optional[Type]) -> Optional[str]:
    return None if ty is None else ty.value


def _ty_from(name: Optional[str]) -> Optional[Type]:
    if name is None:
        return None
    try:
        return Type(name)
    except ValueError as exc:
        raise SerializationError(f"bad type {name!r}") from exc


def _call_to_list(call: BlockCall) -> list:
    return [call.block, list(call.args)]


def _call_from_list(data) -> BlockCall:
    try:
        block, args = data
        return BlockCall(int(block), tuple(int(a) for a in args))
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad block call {data!r}") from exc


def _term_to_dict(term) -> Optional[dict]:
    if term is None:
        return None
    if isinstance(term, Jump):
        return {"t": "jump", "target": _call_to_list(term.target)}
    if isinstance(term, BrIf):
        return {"t": "br_if", "cond": term.cond,
                "if_true": _call_to_list(term.if_true),
                "if_false": _call_to_list(term.if_false)}
    if isinstance(term, BrTable):
        return {"t": "br_table", "index": term.index,
                "cases": [_call_to_list(c) for c in term.cases],
                "default": _call_to_list(term.default)}
    if isinstance(term, Ret):
        return {"t": "ret", "args": list(term.args)}
    if isinstance(term, Trap):
        return {"t": "trap", "message": term.message}
    raise SerializationError(f"not a terminator: {term!r}")


def _term_from_dict(data):
    if data is None:
        return None
    try:
        tag = data["t"]
        if tag == "jump":
            return Jump(_call_from_list(data["target"]))
        if tag == "br_if":
            return BrIf(int(data["cond"]),
                        _call_from_list(data["if_true"]),
                        _call_from_list(data["if_false"]))
        if tag == "br_table":
            return BrTable(int(data["index"]),
                           [_call_from_list(c) for c in data["cases"]],
                           _call_from_list(data["default"]))
        if tag == "ret":
            return Ret(tuple(int(a) for a in data["args"]))
        if tag == "trap":
            return Trap(str(data["message"]))
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad terminator {data!r}") from exc
    raise SerializationError(f"unknown terminator tag {data!r}")


def _imm_to_json(imm):
    """Immediates are ints, floats, strings, ``None`` — or one of the
    tagged forms: a :class:`Signature` (``call_indirect``) or a site
    guard tuple (``guard``)."""
    if isinstance(imm, Signature):
        return {"sig": [[t.value for t in imm.params],
                        [t.value for t in imm.results]]}
    if isinstance(imm, tuple):
        # Site guard imm (site, values); JSON has no tuples, so tag it to
        # reconstruct the exact shape (the verifier insists on tuples).
        if len(imm) != 2:
            raise SerializationError(f"unencodable immediate {imm!r}")
        return {"guard": [imm[0], list(imm[1])]}
    if imm is None or isinstance(imm, (int, float, str)):
        return imm
    raise SerializationError(f"unencodable immediate {imm!r}")


def _imm_from_json(data):
    if isinstance(data, dict):
        if "guard" in data:
            try:
                site, values = data["guard"]
                return (int(site), tuple(int(v) for v in values))
            except (KeyError, TypeError, ValueError) as exc:
                raise SerializationError(f"bad immediate {data!r}") from exc
        try:
            params, results = data["sig"]
            return Signature(tuple(_ty_from(t) for t in params),
                             tuple(_ty_from(t) for t in results))
        except SerializationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"bad immediate {data!r}") from exc
    if data is None or isinstance(data, (int, float, str)):
        return data
    raise SerializationError(f"bad immediate {data!r}")


def _instr_to_list(instr: Instr) -> list:
    return [instr.op, instr.result, list(instr.args),
            _imm_to_json(instr.imm), _ty_str(instr.result_type)]


def _instr_from_list(data) -> Instr:
    try:
        op, result, args, imm, ty = data
        return Instr(str(op),
                     None if result is None else int(result),
                     tuple(int(a) for a in args),
                     _imm_from_json(imm), _ty_from(ty))
    except SerializationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad instruction {data!r}") from exc


def function_to_dict(func: Function) -> dict:
    """Encode a function as a JSON-compatible dict."""
    return {
        "name": func.name,
        "sig": {"params": [t.value for t in func.sig.params],
                "results": [t.value for t in func.sig.results]},
        "entry": func.entry,
        "next_value": func._next_value,
        "next_block": func._next_block,
        "value_types": {str(v): t.value
                        for v, t in func.value_types.items()},
        "blocks": [
            {"id": block.id,
             "params": [[v, t.value] for v, t in block.params],
             "instrs": [_instr_to_list(i) for i in block.instrs],
             "terminator": _term_to_dict(block.terminator)}
            for block in func.blocks.values()
        ],
    }


def function_from_dict(data: dict,
                       name: Optional[str] = None) -> Function:
    """Decode a function; raises :class:`SerializationError` on any
    malformed payload.  ``name`` overrides the stored name (artifacts are
    keyed on request data, not on the per-module unique name)."""
    try:
        sig = Signature(tuple(_ty_from(t) for t in data["sig"]["params"]),
                        tuple(_ty_from(t) for t in data["sig"]["results"]))
        func = Function(name or str(data["name"]), sig)
        func.entry = None if data["entry"] is None else int(data["entry"])
        func._next_value = int(data["next_value"])
        func._next_block = int(data["next_block"])
        func.value_types = {int(v): _ty_from(t)
                            for v, t in data["value_types"].items()}
        for bdata in data["blocks"]:
            block = Block(int(bdata["id"]),
                          [(int(v), _ty_from(t))
                           for v, t in bdata["params"]],
                          [_instr_from_list(i) for i in bdata["instrs"]],
                          _term_from_dict(bdata["terminator"]))
            if block.id in func.blocks:
                # Last-write-wins here would silently decode a
                # *different* program from a poisoned artifact; the
                # contract is strict: corrupt reads as invalid.
                raise SerializationError(
                    f"duplicate block id {block.id}")
            func.blocks[block.id] = block
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SerializationError(f"malformed function payload: {exc}") \
            from exc
    if func.entry is not None and func.entry not in func.blocks:
        raise SerializationError(f"entry block{func.entry} missing")
    return func

