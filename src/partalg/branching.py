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
enumerate_paths returns them in descending order, each as a tuple
(PATH_TUPLES) or straight as its text (PATH_TEXT).  It and
modules.permissible_paths are the two path lists; walk_paths is the one
memoised walk behind both, extending each parent's paths once.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable
from functools import cache

from .errors import DEFAULT_MAX_LEVEL, guard
from .partitions import (Partition, addable_nodes, check_partition,
                         format_partition, parse_partition, partitions_up_to,
                         removable_nodes, strictly_dominates)


Path = tuple[Partition, ...]


class Vertex(namedtuple("Vertex", "shape level")):
    __slots__ = ()

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
        # parent either equals lam or lam minus a node (i, c); smaller shapes
        # dominate, and among removals the lower row wins
        for i, c in reversed(removable_nodes(lam)):
            mu = lam[:i - 1] + (c - 1,) + lam[i:] if c > 1 else lam[:-1]
            out.append(Vertex(mu, k - 1))
        if is_vertex(lam, k - 1):
            out.append(Vertex(lam, k - 1))
    else:
        # k - 1 has room for lam; every lam plus a node (i, c) has the same
        # size, so all of those fit or none do
        out.append(Vertex(lam, k - 1))
        if is_vertex(lam + (1,), k - 1):
            out += [Vertex(lam[:i - 1] + (c,) + lam[i:], k - 1)
                    for i, c in addable_nodes(lam)]
    return out


@cache
def cell_dimension(v: Vertex) -> int:
    """Number of paths from (empty, 0) to v."""
    if v.level == 0:
        return 1 if v.shape == () else 0
    return sum(cell_dimension(u) for u in parents(v))


def _bracketed(s: Partition) -> str:
    return "[" + ",".join(map(str, s)) + "]"


# how a walk builds a path: (the path at (empty, 0), the piece a shape
# appends one level up); each piece is made once per vertex of the walk
PATH_TUPLES = (((),), lambda s: (s,))
PATH_TEXT = (_bracketed(()), lambda s: "," + _bracketed(s))


def walk_paths(v: Vertex, form,
               rule: Callable[[Vertex], list[Vertex] | None] | None = None
               ) -> list:
    """The paths from (empty, 0) to v in descending path order, each built
    in `form`, with no level bound.  rule(u) names the parents whose paths u
    extends, or None where u takes every path to it; without a rule every
    vertex does.  Memoised per call and recursing once per level, so a level
    deeper than the recursion limit raises RecursionError."""
    start, piece = form

    @cache
    def rec(u: Vertex, every: bool) -> list:
        kept = None if every else rule(u)
        if kept is None:
            if u.level == 0:
                return [start] if u.shape == () else []
            kept, every = parents(u), True
        tail = piece(u.shape)
        return [p + tail for w in kept for p in rec(w, every)]

    return rec(v, rule is None)


def enumerate_paths(v: Vertex, max_level: int | None = DEFAULT_MAX_LEVEL,
                    form=PATH_TUPLES) -> list:
    """All paths from (empty, 0) to v, in descending path order, each built
    in `form`: a tuple of shapes (PATH_TUPLES) or its text (PATH_TEXT)."""
    guard("path enumeration level", v.level, "max_level", max_level)
    return walk_paths(v, form)


def check_path(t) -> Path:
    """Validate a shape sequence as a branching path from level 0."""
    t = tuple(check_partition(s) for s in t)
    if not t or t[0] != ():
        raise ValueError("paths start at the empty shape on level 0")
    for i in range(1, len(t)):
        if Vertex(t[i - 1], i - 1) not in parents(Vertex(t[i], i)):
            raise ValueError(
                f"no edge from {t[i - 1]} to {t[i]} at level {i}")
    return t


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
    """The path as "[],[],[1],[1]", the text PATH_TEXT builds."""
    return ",".join(map(_bracketed, t))


# the grammar of stripped path text: bracketed shapes joined by commas,
# whitespace around each comma; a shape is whatever its brackets hold
_PATH = re.compile(r"\[[^\[\]]*\](?:\s*,\s*\[[^\[\]]*\])*")
_SHAPE = re.compile(r"\[([^\[\]]*)\]")


def parse_path(text: str) -> Path:
    """Parse "[],[],[1],[1]" into a validated path.  Text that is not
    bracketed shapes joined by commas (an unclosed or nested bracket, or a
    shape left bare, empty or split by a comma) is a malformed path."""
    text = text.strip()
    if not text:
        raise ValueError("empty path")
    if not _PATH.fullmatch(text):
        raise ValueError(f"malformed path {text!r}")
    return check_path([parse_partition(s) for s in _SHAPE.findall(text)])
