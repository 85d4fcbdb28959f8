"""Axial coordinates on the triangular grid.

A :class:`Node` is an immutable pair of axial coordinates.  The triangular
grid is the adjacency structure of a hexagonal lattice: each node has six
neighbors.  :func:`grid_distance` is the closed-form distance in the
*infinite* grid; shortest-path distance inside a finite amoebot structure
(the induced subgraph :math:`G_X`) is generally larger and computed by the
BFS oracle in :mod:`repro.grid.oracle`.

``Node`` is a :class:`typing.NamedTuple`, so the millions of hashes and
comparisons a solve makes run in C.  ``hash(Node(x, y)) == hash((x, y))``
fixes the iteration order of node sets, which the pinned round totals
and forests depend on.  A ``Node`` equals the plain pair ``(x, y)`` and
encodes as ``[x, y]`` in JSON.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from repro.grid.directions import (
    Axis,
    Direction,
    DIRECTION_OFFSETS,
    _OFFSET_DIRECTION,
    all_directions_ccw,
)


class Node(NamedTuple):
    """A node of the infinite triangular grid in axial coordinates."""

    x: int
    y: int

    def neighbor(self, direction: Direction) -> "Node":
        """The adjacent node one step in ``direction``."""
        return Node(self.x + _DX[direction], self.y + _DY[direction])

    def neighbors(self) -> List["Node"]:
        """All six adjacent nodes, in counterclockwise order from East."""
        return [self.neighbor(d) for d in all_directions_ccw()]

    def direction_to(self, other: "Node") -> Direction:
        """Direction of the edge from ``self`` to an adjacent ``other``."""
        direction = _OFFSET_DIRECTION.get((other.x - self.x, other.y - self.y))
        if direction is None:
            raise ValueError(f"nodes {tuple(self)} and {tuple(other)} are not adjacent")
        return direction

    def is_adjacent(self, other: "Node") -> bool:
        """Whether ``other`` is one of the six grid neighbors."""
        return (other.x - self.x, other.y - self.y) in _OFFSET_DIRECTION

    def axis_coordinate(self, axis: Axis) -> int:
        """Coordinate that is *constant* along lines parallel to ``axis``.

        Two nodes lie on the same maximal ``axis``-parallel grid line iff
        their ``axis_coordinate`` agrees.  This is what identifies the
        portal a node belongs to (Section 2.3):

        * X lines (E/W) have constant ``y``,
        * Y lines (NE/SW) have constant ``x``,
        * Z lines (NW/SE) have constant ``x + y``.
        """
        if axis is Axis.X:
            return self.y
        if axis is Axis.Y:
            return self.x
        return self.x + self.y

    def cartesian(self) -> Tuple[float, float]:
        """Cartesian embedding (for visualization)."""
        return (self.x + self.y / 2.0, self.y * math.sqrt(3.0) / 2.0)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Node({self.x}, {self.y})"


#: Coordinate steps indexed by ``Direction`` value (hot-path lookups).
_DX = tuple(DIRECTION_OFFSETS[d][0] for d in Direction)
_DY = tuple(DIRECTION_OFFSETS[d][1] for d in Direction)


def grid_distance(u: Node, v: Node) -> int:
    """Distance between two nodes in the *infinite* triangular grid.

    With axial coordinates this is the standard hexagonal distance
    ``(|dx| + |dy| + |dx + dy|) / 2``.
    """
    dx = v.x - u.x
    dy = v.y - u.y
    return (abs(dx) + abs(dy) + abs(dx + dy)) // 2


def parallelogram_nodes(width: int, height: int, origin: Node = Node(0, 0)) -> List[Node]:
    """Nodes of a ``width x height`` parallelogram anchored at ``origin``.

    Convenience used by workload generators and tests.
    """
    if width < 1 or height < 1:
        raise ValueError("parallelogram dimensions must be positive")
    return [
        Node(origin.x + i, origin.y + j)
        for j in range(height)
        for i in range(width)
    ]
