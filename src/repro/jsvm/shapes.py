"""Shape (hidden class) management, host side.

Objects in guest memory are ``[shape_id][slot0]...[slotN]``.  The shape
table lives on the host (the "rest of the runtime" from the
interpreter's point of view); the interpreter only ever compares the
shape id word against IC guard constants — the slow path, a host call,
consults this table and attaches IC stubs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

OBJECT_SLOT_CAPACITY = 24  # fixed capacity; transitions never reallocate


@dataclasses.dataclass
class Shape:
    id: int
    # property name id -> slot index, in insertion order
    slots: Dict[int, int]
    transitions: Dict[int, int] = dataclasses.field(default_factory=dict)


class ShapeTable:
    """The host-side registry of shapes and transitions."""

    def __init__(self):
        self.shapes: List[Shape] = []
        self._literal_cache: Dict[Tuple[int, ...], int] = {}
        self.empty = self.new_shape({})

    def new_shape(self, slots: Dict[int, int]) -> int:
        shape = Shape(len(self.shapes), dict(slots))
        self.shapes.append(shape)
        return shape.id

    def shape_for_literal(self, name_ids: Tuple[int, ...]) -> int:
        """The canonical shape for an object literal's property list
        (computed at compile time, so NEWOBJ carries a constant shape)."""
        cached = self._literal_cache.get(name_ids)
        if cached is not None:
            return cached
        shape_id = self.new_shape({name: i for i, name in
                                   enumerate(name_ids)})
        self._literal_cache[name_ids] = shape_id
        return shape_id

    def lookup(self, shape_id: int, name_id: int) -> Optional[int]:
        return self.shapes[shape_id].slots.get(name_id)

    def transition(self, shape_id: int, name_id: int) -> int:
        """Shape after adding ``name_id``; creates it on first use."""
        shape = self.shapes[shape_id]
        cached = shape.transitions.get(name_id)
        if cached is not None:
            return cached
        if len(shape.slots) >= OBJECT_SLOT_CAPACITY:
            raise RuntimeError("object exceeds fixed slot capacity")
        slots = dict(shape.slots)
        slots[name_id] = len(slots)
        new_id = self.new_shape(slots)
        shape.transitions[name_id] = new_id
        return new_id

    def all_property_pairs(self) -> List[Tuple[int, int, int]]:
        """(shape_id, name_id, slot) for every property of every shape —
        the enumeration the AOT IC corpus is built from."""
        pairs = []
        for shape in self.shapes:
            for name_id, slot in shape.slots.items():
                pairs.append((shape.id, name_id, slot))
        return pairs


class NameTable:
    """Interns property names to integer ids (the string-table stand-in)."""

    def __init__(self):
        self.ids: Dict[str, int] = {}

    def intern(self, name: str) -> int:
        return self.ids.setdefault(name, len(self.ids))
