"""Content vectors of branching paths and the induced linkage on vertices.

Each step of a path carries a content value, a linear polynomial in z:

    into an even level: z - |shape|                 if the shape is kept,
                        col - row of the added node if one is added;
    into an odd level:  |shape|                     if the shape is kept,
                        z - (col - row)             if a node is removed.

Evaluating at z = n gives the residue vector.  Two paths are residue
equivalent at n when the vectors agree; two vertices are linked when some
residue vector is shared between their path sets, closed transitively.  The
production route computes linkage classes as block chains; the brute-force
route enumerates all residue vectors and is kept behind a verification flag.
"""

from __future__ import annotations

from typing import NamedTuple

from .branching import (Path, Vertex, check_path, enumerate_paths,
                        vertices_at_level)
from .errors import DEFAULT_MAX_LEVEL, InternalCheckError
from .modules import blocks_at_level
from .partitions import node_content
from .zpoly import ZPoly


class ContentValue(NamedTuple):
    """constant + zcoeff * z, with zcoeff either 0 or 1."""

    constant: int
    zcoeff: int

    def at(self, n: int) -> int:
        return self.constant + self.zcoeff * n

    def poly(self) -> ZPoly:
        return ZPoly((self.constant, self.zcoeff))

    def __str__(self):
        if self.zcoeff == 0:
            return str(self.constant)
        z = "z" if self.zcoeff == 1 else f"{self.zcoeff}z"
        if self.constant == 0:
            return z
        return f"{z}{self.constant:+d}"


def _added_node(small, large):
    rows = max(len(small), len(large)) or 1
    for i in range(1, rows + 1):
        a = small[i - 1] if i <= len(small) else 0
        b = large[i - 1] if i <= len(large) else 0
        if b == a + 1:
            return (i, b)
    raise ValueError(f"{large} is not {small} plus one node")


def content_vector(t: Path) -> tuple[ContentValue, ...]:
    """One content value per step of the path."""
    t = check_path(t)
    out = []
    for i in range(1, len(t)):
        prev, cur = t[i - 1], t[i]
        if i % 2 == 0:
            if cur == prev:
                out.append(ContentValue(-sum(cur), 1))
            else:
                out.append(ContentValue(node_content(_added_node(prev, cur)), 0))
        else:
            if cur == prev:
                out.append(ContentValue(sum(cur), 0))
            else:
                out.append(ContentValue(-node_content(_added_node(cur, prev)), 1))
    return tuple(out)


def residue_vector(t: Path, n: int) -> tuple[int, ...]:
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    return tuple(c.at(n) for c in content_vector(t))


def residue_equivalent(s: Path, t: Path, n: int) -> bool:
    if len(s) != len(t):
        raise ValueError("paths of different lengths")
    return residue_vector(s, n) == residue_vector(t, n)


def linkage_classes(k: int, n: int, verify: bool = False,
                    max_level: int = DEFAULT_MAX_LEVEL) -> list[tuple[Vertex, ...]]:
    """Partition of the level-k vertices into linkage classes.

    Production route: block chains.  With verify=True the classes are
    recomputed from raw residue vectors (shared vector joins two vertices,
    transitive closure) and a mismatch raises InternalCheckError.
    """
    classes = blocks_at_level(k, n)
    if verify:
        brute = brute_force_linkage_classes(k, n, max_level)
        if {frozenset(c) for c in classes} != {frozenset(c) for c in brute}:
            raise InternalCheckError(
                f"linkage mismatch at level {k}, n={n}: "
                f"chains {classes} vs residue closure {brute}")
    return classes


def brute_force_linkage_classes(k: int, n: int,
                                max_level: int = DEFAULT_MAX_LEVEL
                                ) -> list[tuple[Vertex, ...]]:
    """Union-find closure of "some paths share a residue vector"."""
    verts = vertices_at_level(k)
    index = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    owner: dict[tuple[int, ...], int] = {}
    for v in verts:
        for t in enumerate_paths(v, max_level):
            r = residue_vector(t, n)
            if r in owner:
                union(owner[r], index[v])
            else:
                owner[r] = index[v]
    groups: dict[int, list[Vertex]] = {}
    for v in verts:
        groups.setdefault(find(index[v]), []).append(v)
    return [tuple(g) for g in groups.values()]
