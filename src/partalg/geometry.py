"""Integer alcove geometry for branching-graph vertices, read off shapes.

A vertex (lam, k) at parameter n has the head h = n - |lam| on even levels
and h = n - 1 - |lam| on odd ones.  It lies on wall j when h = lam_j - j,
and in alcove j when lam_{j-1} - (j - 1) > h > lam_j - j (alcove 1 means
h > lam_1 - 1); as the staircase lam_j - j decreases strictly, exactly one
of these holds.

Swapping the head with staircase entry j is the reflection s_{0,j}.  On
shapes, row j becomes h + j and the other rows stay, so the image is a
vertex exactly when those rows form a partition that fits the level.  These
swaps generate everything the block and decomposition machinery needs.

The staircase point (h | lam_1 - 1, lam_2 - 2, ...) and its lemmas live in
oracles.py, as the model these shape rules are tested against.
"""

from __future__ import annotations

from collections import namedtuple

from .branching import Vertex, is_vertex
from .partitions import row


# kind is "alcove" or "wall"
class AlcovePosition(namedtuple("AlcovePosition", "kind index")):
    __slots__ = ()

    def __str__(self):
        return f"{self.kind} {self.index}"


def head(v: Vertex, n: int) -> int:
    """The head h of v at parameter n; a negative n is refused."""
    lam, k = v
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    return (n if k % 2 == 0 else n - 1) - sum(lam)


def position(v: Vertex, n: int) -> AlcovePosition:
    """Locate v on a wall or in an alcove at parameter n.

    The first j with h >= lam_j - j decides; the scan terminates because
    the staircase eventually drops below any fixed head.
    """
    h = head(v, n)
    j = 1
    while True:
        xj = row(v.shape, j) - j
        if h == xj:
            return AlcovePosition("wall", j)
        if h > xj:
            return AlcovePosition("alcove", j)
        j += 1


def reflected_vertex(v: Vertex, n: int, j: int) -> Vertex | None:
    """s_{0,j} applied to v on shapes: row j becomes head + j, the other
    rows stay; None unless those rows form a partition fitting the level."""
    if j < 1:
        raise ValueError("reflection index must be at least 1")
    lam, k = v
    r = head(v, n) + j
    if r < row(lam, j + 1) or (j > 1 and r > row(lam, j - 1)):
        return None
    mu = lam[:j - 1] + (r,) + lam[j:] if r else lam[:j - 1]
    return Vertex(mu, k) if is_vertex(mu, k) else None
