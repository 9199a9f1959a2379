"""Specialization contexts (paper S3.1).

A context is an immutable tuple of context values, innermost last.
``push_context(v)`` appends ``v``, ``update_context(v)`` replaces the
innermost value, and ``pop_context()`` removes it.

Context values are *not* load-bearing for correctness: they only key the
duplication of specialized code.  An empty context is the root.
"""

from __future__ import annotations

from typing import Dict, Tuple

Context = Tuple[object, ...]

ROOT: Context = ()

# The sentinel context value used when an intrinsic receives a run-time
# (non-constant) context: all such paths share one "generic copy" of the
# interpreter body, keeping the context set finite.
DYNAMIC = "__dyn__"

# Hash-consing table: contexts are dict-key components of every
# specialized-block key, so handing out one canonical tuple per distinct
# context lets dict probes and equality checks hit the identity fast
# path instead of comparing tuples element by element.
_INTERN: Dict[Context, Context] = {}
_INTERN_CAP = 1 << 20  # safety valve, never expected in practice


def _intern(ctx: Context) -> Context:
    cached = _INTERN.get(ctx)
    if cached is not None:
        return cached
    if len(_INTERN) >= _INTERN_CAP:
        _INTERN.clear()
    _INTERN[ctx] = ctx
    return ctx


def push(ctx: Context, value: object) -> Context:
    return _intern(ctx + (value,))


def pop(ctx: Context) -> Context:
    if not ctx:
        raise ValueError("pop_context on an empty context stack")
    return _intern(ctx[:-1])


def update(ctx: Context, value: object) -> Context:
    """Replace the innermost value.  On the root this is a push
    (tolerant, like the paper's "not load-bearing" stance)."""
    return _intern(ctx[:-1] + (value,))
