"""The branching graph underlying the tower of partition algebras.

Vertices on level k are partitions of size at most floor(k/2).  Going up one
level, an even target keeps the shape or adds one node; an odd target keeps
the shape or removes one node.  Paths from (empty, 0) to (lam, k) index a
basis of the level-k cell module of shape lam, so the memoized path count is
the cell-module dimension, and summing its square over a level gives the Bell
number of that level.

A path is stored as a tuple of shapes, one per level starting at level 0.
Paths with a common endpoint are totally ordered: compare at the largest
level where they differ, using the size-graded dominance order on shapes.
enumerate_paths returns them in descending order.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .errors import DEFAULT_MAX_LEVEL, guard
from .partitions import (Partition, addable_nodes, check_partition, dominates,
                         format_partition, parse_partition, partitions_up_to,
                         remove_node, add_node, removable_nodes,
                         strictly_dominates)


Path = tuple[Partition, ...]


class Vertex(NamedTuple):
    shape: Partition
    level: int

    def __str__(self):
        return f"({format_partition(self.shape)}, {self.level})"


def vertex(shape, level: int) -> Vertex:
    """Validated vertex constructor."""
    shape = check_partition(shape)
    if level < 0:
        raise ValueError("level must be nonnegative")
    if sum(shape) > level // 2:
        raise ValueError(f"{shape} too large for level {level}")
    return Vertex(shape, level)


def is_vertex(shape, level: int) -> bool:
    return level >= 0 and sum(shape) <= level // 2


def vertices_at_level(k: int) -> list[Vertex]:
    """All level-k vertices, by size then descending lex."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    return [Vertex(lam, k) for lam in partitions_up_to(k // 2)]


def parents(v: Vertex) -> list[Vertex]:
    """Sources of edges into v, in descending dominance order.

    The order matters: concatenating path families parent by parent is what
    makes enumerate_paths come out sorted.
    """
    lam, k = v
    if k <= 0:
        return []
    out: list[Vertex] = []
    if k % 2 == 0:
        # parent either equals lam or lam minus a node; smaller shapes
        # dominate, and among removals the lower row wins
        for a in reversed(removable_nodes(lam)):
            out.append(Vertex(remove_node(lam, a), k - 1))
        if is_vertex(lam, k - 1):
            out.append(Vertex(lam, k - 1))
    else:
        if is_vertex(lam, k - 1):
            out.append(Vertex(lam, k - 1))
        for a in addable_nodes(lam):
            mu = add_node(lam, a)
            if is_vertex(mu, k - 1):
                out.append(Vertex(mu, k - 1))
    return out


def is_edge(u: Vertex, v: Vertex) -> bool:
    """True when u -> v is a branching edge (u one level below v)."""
    if u.level != v.level - 1:
        return False
    return u in parents(v)


@cache
def cell_dimension(v: Vertex) -> int:
    """Number of paths from (empty, 0) to v."""
    if v.level == 0:
        return 1 if v.shape == () else 0
    return sum(cell_dimension(u) for u in parents(v))


def enumerate_paths(v: Vertex, max_level: int = DEFAULT_MAX_LEVEL) -> list[Path]:
    """All paths from (empty, 0) to v, in descending path order."""
    guard("path enumeration level", v.level, "max_level", max_level)

    @cache
    def rec(u: Vertex) -> tuple[Path, ...]:
        if u.level == 0:
            return ((u.shape,),) if u.shape == () else ()
        return tuple(p + (u.shape,) for w in parents(u) for p in rec(w))

    return list(rec(v))


def check_path(t) -> Path:
    """Validate a shape sequence as a branching path from level 0."""
    t = tuple(check_partition(s) for s in t)
    if not t or t[0] != ():
        raise ValueError("paths start at the empty shape on level 0")
    for i in range(1, len(t)):
        if not is_edge(Vertex(t[i - 1], i - 1), Vertex(t[i], i)):
            raise ValueError(
                f"no edge from {t[i - 1]} to {t[i]} at level {i}")
    return t


def path_endpoint(t: Path) -> Vertex:
    return Vertex(t[-1], len(t) - 1)


def truncate(t: Path, r: int) -> Path:
    """The sub-path through level r."""
    if not 0 <= r < len(t):
        raise ValueError(f"level {r} outside path of length {len(t) - 1}")
    return t[: r + 1]


def dominance_geq(a: Vertex, b: Vertex) -> bool:
    """Size-graded dominance on same-level vertices."""
    if a.level != b.level:
        raise ValueError("vertices on different levels are incomparable")
    return dominates(a.shape, b.shape)


def path_succ(s: Path, t: Path) -> bool:
    """True when s strictly precedes t: at the largest level where they
    differ, s is dominance-larger."""
    if len(s) != len(t) or s[-1] != t[-1]:
        raise ValueError("path order compares paths with a common endpoint")
    for r in range(len(s) - 1, -1, -1):
        if s[r] != t[r]:
            return strictly_dominates(s[r], t[r])
    return False


def format_path(t: Path) -> str:
    return ",".join("[" + (format_partition(s) if s else "") + "]" for s in t)


def parse_path(text: str) -> Path:
    """Parse "[],[],[1],[1]" into a validated path."""
    text = text.strip()
    if not text:
        raise ValueError("empty path")
    shapes = []
    depth = 0
    start = 0
    for i, ch in enumerate(text + ","):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            shapes.append(parse_partition(text[start:i]))
            start = i + 1
    return check_path(shapes)
