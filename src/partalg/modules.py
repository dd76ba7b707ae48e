"""Blocks, decomposition numbers, permissible paths, simple and radical
dimensions for the partition algebra at an integer parameter n >= 0.
Semisimplicity is not decided here: the Kronecker layer uses its closed
form, and the scan over block chains lives in oracles.py.

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

from functools import cache

from .branching import (PATH_TUPLES, Vertex, cell_dimension, parents,
                        vertices_at_level, walk_paths)
from .errors import DEFAULT_MAX_LEVEL, guard
from .geometry import position, reflected_vertex


def block_chain(v: Vertex, n: int) -> tuple[Vertex, ...]:
    """Maximal swap chain through v, sizes strictly increasing.

    chain[i] sits in alcove i+1, and the swap s_{0,i+1} carries it to
    chain[i+1].  A wall vertex is its own one-member chain.
    """
    pos = position(v, n)
    if pos.kind == "wall":
        return (v,)
    # walk down to alcove 1: the swap s_{0,a-1}, ..., s_{0,1} images always
    # read back as vertices (their shapes shrink)
    base = v
    for j in range(pos.index - 1, 0, -1):
        below = reflected_vertex(base, n, j)
        if below is None:
            raise AssertionError(f"downward swap failed at {base}, j={j}")
        base = below
    # walk up by s_{0,1}, s_{0,2}, ... while the swapped point still reads
    # back as a vertex
    chain = [base]
    while (up := reflected_vertex(chain[-1], n, len(chain))) is not None:
        chain.append(up)
    return tuple(chain)


def _vanishes(v: Vertex, n: int) -> bool:
    """The one simple that is zero: the empty shape at n = 0 on an even
    level >= 2."""
    return n == 0 and v.level % 2 == 0 and v.level >= 2 and v.shape == ()


def decomposition_row(v: Vertex, n: int) -> tuple[tuple[Vertex, int], ...]:
    """Composition factors of the cell module of v, with multiplicities:
    [L(v)] + [L(next chain member)], dropping L(v) in the vanishing case and
    at the chain top keeping only L(v)."""
    chain = block_chain(v, n)
    idx = chain.index(v)
    factors: list[tuple[Vertex, int]] = []
    if not _vanishes(v, n):
        factors.append((v, 1))
    if idx + 1 < len(chain):
        factors.append((chain[idx + 1], 1))
    return tuple(factors)


def _simple_parents(v: Vertex, n: int) -> list[Vertex] | None:
    """The parents that the simple module of v restricts to: for v in alcove
    j, those in alcove j or on the facing wall j - 1 (walls start at 1).
    None where the simple module is the whole cell module: on a wall, and at
    level 0.  v is placed before the level test, so position refuses a
    negative n at level 0 too."""
    pos = position(v, n)
    if v.level == 0 or pos.kind == "wall":
        return None
    j = pos.index
    return [u for u in parents(v)
            if position(u, n) in (("alcove", j), ("wall", j - 1))]


@cache
def _simple_dimension(v: Vertex, n: int) -> int:
    kept = _simple_parents(v, n)
    if kept is None:
        return cell_dimension(v)
    return sum(_simple_dimension(u, n) for u in kept)


def simple_dimension(v: Vertex, n: int) -> int:
    """Dimension of the simple module of v, by the restriction recursion."""
    return _simple_dimension(v, n)


def permissible_paths(v: Vertex, n: int,
                      max_level: int | None = DEFAULT_MAX_LEVEL,
                      form=PATH_TUPLES) -> list:
    """The paths to v that survive at parameter n, in descending path order,
    each built in `form` (see branching.enumerate_paths).

    The restriction recursion of simple_dimension, walked path by path:
    every path to a wall vertex (or to level 0) survives, and an alcove
    vertex extends the surviving paths of its simple parents.
    """
    guard("path enumeration level", v.level, "max_level", max_level)
    return walk_paths(v, form, lambda u: _simple_parents(u, n))


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
    kept = _simple_parents(v, n)
    if kept is not None:
        return kept
    if v.level == 0:
        raise ValueError("level 0 does not restrict")
    raise ValueError(
        "simple restriction is only computed for alcove vertices; "
        "use restrict_cell, the modules coincide on walls")


def blocks_at_level(k: int, n: int) -> list[tuple[Vertex, ...]]:
    """The partition of level-k vertices into block chains, in chain order."""
    seen: set[Vertex] = set()
    out = []
    for v in vertices_at_level(k):
        if v in seen:
            continue
        chain = block_chain(v, n)
        seen.update(chain)
        out.append(chain)
    return out
