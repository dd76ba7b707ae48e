"""Integer alcove geometry for branching-graph vertices.

A vertex (lam, k) embeds at parameter n as the staircase point

    x_0 = n - |lam|          (k even)      x_i = lam_i - i   (i >= 1),
    x_0 = n - 1 - |lam|      (k odd)

so the coordinates x_1 > x_2 > ... decrease strictly and settle at -i.  The
point lies on wall j when x_0 = x_j, and in alcove j when x_{j-1} > x_0 > x_j
(alcove 1 means x_0 > x_1); exactly one of these holds.

Swapping x_0 with x_j is the reflection s_{0,j}.  Production reads it back
on shapes: row j becomes head + j, the other rows stay, and the swapped head
is consistent automatically, so the image is a vertex exactly when those rows
form a partition that fits the level.  These swaps generate everything the
block and decomposition machinery needs.  The coordinate route (reflect the
staircase, compare with oracles.reflection_equal) lives on only as the
reference the shape rule is tested against.

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


def reflected_vertex(v: Vertex, n: int, j: int) -> Vertex | None:
    """s_{0,j}(phi_n(v)) read back on shapes: row j becomes head + j, the
    other rows stay; None unless those rows form a partition fitting the
    level."""
    if j < 1:
        raise ValueError("reflection index must be at least 1")
    lam, k = v
    r = embed(v, n).head + j
    if r < row(lam, j + 1) or (j > 1 and r > row(lam, j - 1)):
        return None
    mu = lam[:j - 1] + (r,) + lam[j:] if r else lam[:j - 1]
    return Vertex(mu, k) if is_vertex(mu, k) else None


def embedded_path(t: Path, n: int) -> list[EmbeddedPoint]:
    return [embed(Vertex(shape, i), n) for i, shape in enumerate(t)]
