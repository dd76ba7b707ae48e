"""Blocks, decomposition numbers, permissible paths, simple and radical
dimensions for the partition algebra at an integer parameter n >= 0.

Everything here is driven by the alcove geometry: block chains are maximal
orbits of head-row swaps inside the branching graph, a cell module indexed by
a chain interior has exactly two composition factors (its own simple on top,
the next chain member's below), wall vertices and chain tops are simple, and
the dimension of a simple equals the number of permissible paths to its
vertex.

One genuine degeneration: at n = 0 on even levels >= 2 the simple labelled by
the empty shape vanishes and its cell module IS the simple of (1).  The path
count and the restriction recursion produce this on their own; the explicit
branch appears only where a closed formula is used.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .branching import (Path, Vertex, cell_dimension, check_path,
                        enumerate_paths, parents, vertices_at_level)
from .errors import DEFAULT_MAX_LEVEL
from .geometry import AlcovePosition, classify, embed, embedded_path, reflected_vertex


class BlockChain(NamedTuple):
    """Maximal swap chain through a vertex, sizes strictly increasing.

    chain[i] sits in alcove i+1; reflections[i] is the swap index j carrying
    chain[i] to chain[i+1].  A wall vertex is its own singleton chain.
    """

    chain: tuple[Vertex, ...]
    reflections: tuple[int, ...]

    @property
    def singleton(self) -> bool:
        return len(self.chain) == 1


def block_chain(v: Vertex, n: int) -> BlockChain:
    pos = classify(embed(v, n))
    if pos.kind == "wall":
        return BlockChain((v,), ())
    a = pos.index
    # walk down to alcove 1: the swap s_{0,a-1}, ..., s_{0,1} images always
    # read back as vertices (their shapes shrink)
    down: list[Vertex] = []
    cur = v
    for j in range(a - 1, 0, -1):
        prev = reflected_vertex(cur, n, j)
        if prev is None:
            raise AssertionError(f"downward swap failed at {cur}, j={j}")
        down.append(prev)
        cur = prev
    chain = list(reversed(down)) + [v]
    refl = list(range(1, a))
    # walk up while the swapped point still reads back as a vertex
    cur, j = v, a
    while True:
        nxt = reflected_vertex(cur, n, j)
        if nxt is None:
            break
        chain.append(nxt)
        refl.append(j)
        cur, j = nxt, j + 1
    return BlockChain(tuple(chain), tuple(refl))


class DecompositionRow(NamedTuple):
    """Composition factors of one cell module, with multiplicities."""

    cell: Vertex
    factors: tuple[tuple[Vertex, int], ...]


def _vanishes(v: Vertex, n: int) -> bool:
    """The one simple that is zero: the empty shape at n = 0 on an even
    level >= 2."""
    return n == 0 and v.level % 2 == 0 and v.level >= 2 and v.shape == ()


def decomposition_row(v: Vertex, n: int) -> DecompositionRow:
    """Factors of the cell module of v: [L(v)] + [L(next chain member)],
    dropping L(v) in the vanishing case and at the chain top keeping only
    L(v)."""
    bc = block_chain(v, n)
    idx = bc.chain.index(v)
    factors: list[tuple[Vertex, int]] = []
    if not _vanishes(v, n):
        factors.append((v, 1))
    if idx + 1 < len(bc.chain):
        factors.append((bc.chain[idx + 1], 1))
    return DecompositionRow(v, tuple(factors))


def is_permissible(t: Path, n: int) -> bool:
    """Paths that survive at parameter n.

    Wall endpoint: always.  Alcove-1 endpoint: every point of the path must
    sit in alcove 1.  Alcove-j endpoint, j >= 2: the last point outside
    alcove j must sit on wall j-1 (a last such point exists, the start of
    the path is in alcove 1).
    """
    pts = embedded_path(check_path(t), n)
    pos = classify(pts[-1])
    if pos.kind == "wall":
        return True
    j = pos.index
    if j == 1:
        return all(classify(p) == ("alcove", 1) for p in pts)
    for p in reversed(pts):
        if classify(p) != ("alcove", j):
            return classify(p) == ("wall", j - 1)
    raise AssertionError("path start cannot lie in an alcove j >= 2")


def permissible_paths(v: Vertex, n: int,
                      max_level: int = DEFAULT_MAX_LEVEL) -> list[Path]:
    return [t for t in enumerate_paths(v, max_level) if is_permissible(t, n)]


def _position(v: Vertex, n: int) -> AlcovePosition:
    return classify(embed(v, n))


def _simple_parents(v: Vertex, n: int, j: int) -> list[Vertex]:
    """Parents of a vertex in alcove j that its simple module restricts to:
    those in alcove j or on the facing wall j - 1 (walls start at 1)."""
    return [u for u in parents(v)
            if _position(u, n) in (("alcove", j), ("wall", j - 1))]


@lru_cache(maxsize=None)
def _simple_dimension(shape, level, n) -> int:
    v = Vertex(shape, level)
    if level == 0:
        return 1
    pos = _position(v, n)
    if pos.kind == "wall":
        return cell_dimension(v)
    return sum(_simple_dimension(u.shape, u.level, n)
               for u in _simple_parents(v, n, pos.index))


def simple_dimension(v: Vertex, n: int) -> int:
    """Dimension of the simple module of v, by the restriction recursion."""
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    return _simple_dimension(v.shape, v.level, n)


def simple_dimension_by_paths(v: Vertex, n: int,
                              max_level: int = DEFAULT_MAX_LEVEL) -> int:
    """Same number, counted as permissible paths."""
    return len(permissible_paths(v, n, max_level))


def simple_dimension_by_alternating_sum(v: Vertex, n: int) -> int:
    """Same number, telescoped down the block chain from v:
    dim L = dim Cell(v) - dim Cell(next) + dim Cell(after next) - ..."""
    if _vanishes(v, n):
        return 0
    bc = block_chain(v, n)
    idx = bc.chain.index(v)
    total = 0
    for step, w in enumerate(bc.chain[idx:]):
        total += (-1) ** step * cell_dimension(w)
    return total


def radical_dimension(v: Vertex, n: int) -> int:
    """Dimension of the radical of the cell module of v."""
    return cell_dimension(v) - simple_dimension(v, n)


def restrict_cell(v: Vertex) -> list[Vertex]:
    """Cell module of v restricted one level down: one cell per parent."""
    if v.level == 0:
        raise ValueError("level 0 does not restrict")
    return parents(v)


def restrict_simple(v: Vertex, n: int) -> list[Vertex]:
    """Simple module of v restricted one level down, for an alcove vertex:
    the parents in the same alcove or on the facing wall.

    Wall vertices are refused; restrict the cell module instead (they agree).
    """
    pos = _position(v, n)
    if pos.kind == "wall":
        raise ValueError(
            "simple restriction is only computed for alcove vertices; "
            "use restrict_cell, the modules coincide on walls")
    if v.level == 0:
        raise ValueError("level 0 does not restrict")
    return _simple_parents(v, n, pos.index)


def blocks_at_level(k: int, n: int) -> list[tuple[Vertex, ...]]:
    """The partition of level-k vertices into block chains, in chain order."""
    seen: set[Vertex] = set()
    out = []
    for v in vertices_at_level(k):
        if v in seen:
            continue
        bc = block_chain(v, n)
        seen.update(bc.chain)
        out.append(bc.chain)
    return out


def is_semisimple(k: int, n: int) -> bool:
    """True when every level-k cell module is simple and alone in its block,
    i.e. every block chain is a singleton."""
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    return all(len(chain) == 1 for chain in blocks_at_level(k, n))


def first_semisimple_n(k: int) -> int:
    """Least n at which level k is semisimple (for even k this is k - 1)."""
    n = 0
    while not is_semisimple(k, n):
        n += 1
    return n
