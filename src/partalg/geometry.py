"""Integer alcove geometry for branching-graph vertices.

A vertex (lam, k) embeds at parameter n as the staircase point

    x_0 = n - |lam|          (k even)      x_i = lam_i - i   (i >= 1),
    x_0 = n - 1 - |lam|      (k odd)

so the coordinates x_1 > x_2 > ... decrease strictly and settle at -i.  The
point lies on wall j when x_0 = x_j, and in alcove j when x_{j-1} > x_0 > x_j
(alcove 1 means x_0 > x_1); exactly one of these holds.

Swapping x_0 with x_j is the reflection s_{0,j}.  Applied to an embedded
vertex it lands back in the image of the embedding exactly when the rows read
off from the swapped coordinates form a partition that fits the level; the
head coordinate is consistent automatically.  These swaps generate everything
the block and decomposition machinery needs.

Branching edges move the embedded point by one unit in one coordinate: into
an even level the step adds epsilon_j, into an odd level it subtracts it.
The residue of the step is x_j at the target when epsilon_j was added and
n - 1 - x_j when it was subtracted; the resulting residue sequence matches
the path's content vector evaluated at z = n.  That lemma and the others
about this picture are checked in oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .branching import Path, Vertex, is_vertex
from .partitions import Partition, row


@dataclass(frozen=True)
class EmbeddedPoint:
    """phi_n of a vertex: head coordinate plus the staircase of the shape."""

    head: int
    shape: Partition
    level: int
    n: int

    def coord(self, i: int) -> int:
        if i < 0:
            raise ValueError("coordinate index must be nonnegative")
        if i == 0:
            return self.head
        return row(self.shape, i) - i

    @property
    def extent(self) -> int:
        """Beyond this index every coordinate equals -i."""
        return len(self.shape)

    def coords(self, upto: int) -> tuple[int, ...]:
        return tuple(self.coord(i) for i in range(upto + 1))

    def __str__(self):
        upto = max(self.extent + 1, 2)
        body = ",".join(str(self.coord(i)) for i in range(1, upto + 1))
        return f"({self.coord(0)} | {body},...)"


def embed(v: Vertex, n: int) -> EmbeddedPoint:
    lam, k = v
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    head = (n if k % 2 == 0 else n - 1) - sum(lam)
    return EmbeddedPoint(head, lam, k, n)


class AlcovePosition(NamedTuple):
    kind: str  # "alcove" or "wall"
    index: int

    def __str__(self):
        return f"{self.kind} {self.index}"


def classify(x: EmbeddedPoint) -> AlcovePosition:
    """Locate x on a wall or in an alcove; exactly one applies.

    The scan terminates because the staircase coordinates eventually drop
    below any fixed head value.
    """
    j = 1
    while True:
        xj = x.coord(j)
        if x.head == xj:
            return AlcovePosition("wall", j)
        if x.head > xj:
            return AlcovePosition("alcove", j)
        j += 1


def reflect(x: EmbeddedPoint, j: int) -> tuple[int, ...]:
    """Coordinates of s_{0,j}(x), as a prefix; beyond it coordinates are -i."""
    if j < 1:
        raise ValueError("reflection index must be at least 1")
    upto = max(x.extent, j) + 1
    coords = list(x.coords(upto))
    coords[0], coords[j] = coords[j], coords[0]
    return tuple(coords)


def vertex_from_coords(coords: tuple[int, ...], level: int, n: int) -> Vertex | None:
    """Read a vertex back off raw coordinates, or None when they leave the
    embedded image (rows must form a partition that fits the level).

    The trailing coordinates are implicitly -i, so the prefix must carry any
    nonzero rows.
    """
    parts = [coords[i] + i for i in range(1, len(coords))]
    if any(p < 0 for p in parts):
        return None
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return None
    lam = tuple(p for p in parts if p)  # zeros form a suffix by the check above
    if not is_vertex(lam, level):
        return None
    expected_head = (n if level % 2 == 0 else n - 1) - sum(lam)
    if coords[0] != expected_head:
        return None
    return Vertex(lam, level)


def reflected_vertex(v: Vertex, n: int, j: int) -> Vertex | None:
    """Apply s_{0,j} to phi_n(v) and convert back, if possible."""
    return vertex_from_coords(reflect(embed(v, n), j), v.level, n)


def embedded_path(t: Path, n: int) -> list[EmbeddedPoint]:
    return [embed(Vertex(shape, i), n) for i, shape in enumerate(t)]
