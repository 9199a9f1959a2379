"""Dominator tree computation (Cooper-Harvey-Kennedy algorithm).

Needed by the verifier (def-dominates-use), by the SSA repair pass
(S3.4 of the paper), and by the optimizer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.cfg import predecessors, reverse_postorder
from repro.ir.function import Function


class DominatorTree:
    """Immediate-dominator tree over the reachable blocks of a function."""

    def __init__(self, func: Function):
        self.func = func
        self.rpo = reverse_postorder(func)
        self._rpo_index: Dict[int, int] = {b: i for i, b in enumerate(self.rpo)}
        self.idom: Dict[int, Optional[int]] = {}
        self._compute()
        self.children: Dict[int, List[int]] = {b: [] for b in self.rpo}
        for block, parent in self.idom.items():
            if parent is not None and parent != block:
                self.children[parent].append(block)
        self._depth: Dict[int, int] = {}
        self._compute_depths()

    def _compute(self) -> None:
        entry = self.func.entry
        preds = predecessors(self.func)
        idom: Dict[int, Optional[int]] = {entry: entry}

        def intersect(a: int, b: int) -> int:
            while a != b:
                while self._rpo_index[a] > self._rpo_index[b]:
                    a = idom[a]  # type: ignore[assignment]
                while self._rpo_index[b] > self._rpo_index[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block == entry:
                    continue
                new_idom: Optional[int] = None
                for pred in preds[block]:
                    if pred not in self._rpo_index:
                        continue  # unreachable predecessor
                    if pred not in idom:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = intersect(new_idom, pred)
                if new_idom is not None and idom.get(block) != new_idom:
                    idom[block] = new_idom
                    changed = True
        self.idom = idom
        # Entry's idom is conventionally None for tree purposes.
        self.idom[entry] = None

    def _compute_depths(self) -> None:
        entry = self.func.entry
        self._depth[entry] = 0
        stack = [entry]
        while stack:
            block = stack.pop()
            for child in self.children.get(block, ()):
                self._depth[child] = self._depth[block] + 1
                stack.append(child)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def is_reachable(self, block: int) -> bool:
        return block in self._rpo_index

    def dominates(self, a: int, b: int) -> bool:
        """True iff block ``a`` dominates block ``b`` (reflexive)."""
        if a == b:
            return True
        if a not in self._depth or b not in self._depth:
            return False
        # Walk b up to a's depth, then compare.
        while self._depth[b] > self._depth[a]:
            parent = self.idom[b]
            if parent is None:
                return False
            b = parent
        return a == b
