"""Independent routes, and the selftest checks that hold production to them.

Each quantity has one production route elsewhere in the package; only cli.py
and the package root import this module, as an ast test enforces.  Kept here:
content and residue vectors of paths, the path-level definition of
permissibility, two more simple-dimension counts, semisimplicity as a scan
over block chains (the reference for the closed-form stable level of
kronecker.py), linkage as the closure of shared residue vectors, and the
staircase coordinate model of the alcove geometry with its lemmas.  The
checks compare these with production on small exhaustive ranges; the CLI
selftest verb runs them all, and the test suite checks the same properties
with loops of its own.  Also kept: the recursive enumeration of partitions
and the shape-based border-strip recursion for characters with the class sum
built on it, which the test suite holds the production routes of
partitions.py and kronecker.py to.

The coordinate model embeds a vertex (lam, k) at parameter n as the point
(h | lam_1 - 1, lam_2 - 2, ...), h the head of geometry.py.  Swapping the
head with entry j is the reflection s_{0,j}, and a branching edge moves the
point by one unit in one coordinate.

Each step of a path carries a content value, a linear polynomial in z:

    into an even level: z - |shape|                 if the shape is kept,
                        col - row of the added node if one is added;
    into an odd level:  |shape|                     if the shape is kept,
                        z - (col - row)             if a node is removed.

Evaluating at z = n gives the residue vector.  Two vertices are linked when
some residue vector is shared between their path sets, closed transitively;
the linkage classes are the block chains of modules.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from math import factorial
from typing import Callable, Iterator, NamedTuple

from .branching import (Path, Vertex, cell_dimension, check_path,
                        enumerate_paths, parents, vertices_at_level)
from .errors import DEFAULT_MAX_LEVEL, InternalCheckError, guard
from .geometry import AlcovePosition, head, position
from .kronecker import class_size
from .modules import _vanishes, block_chain, blocks_at_level, simple_dimension
from .partitions import Partition, check_partition, node_content, row

SAME_ALCOVE = "same_alcove"
WALL_J = "wall_j"
WALL_J_MINUS_1 = "wall_j_minus_1"


# --- contents and residues ---------------------------------------------------

class ContentValue(NamedTuple):
    """constant + zcoeff * z, with zcoeff either 0 or 1."""

    constant: int
    zcoeff: int

    def at(self, n: int) -> int:
        return self.constant + self.zcoeff * n

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


def edge_content(prev: Partition, cur: Partition, level: int) -> ContentValue:
    """Content of the branching edge from prev on level - 1 to cur on level."""
    if level % 2 == 0:
        if cur == prev:
            return ContentValue(-sum(cur), 1)
        return ContentValue(node_content(_added_node(prev, cur)), 0)
    if cur == prev:
        return ContentValue(sum(cur), 0)
    return ContentValue(-node_content(_added_node(cur, prev)), 1)


def content_vector(t: Path) -> tuple[ContentValue, ...]:
    """One content value per step of the path."""
    t = check_path(t)
    return tuple(edge_content(t[i - 1], t[i], i) for i in range(1, len(t)))


def residue_vector(t: Path, n: int) -> tuple[int, ...]:
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    return tuple(c.at(n) for c in content_vector(t))


def residue_equivalent(s: Path, t: Path, n: int) -> bool:
    if len(s) != len(t):
        raise ValueError("paths of different lengths")
    return residue_vector(s, n) == residue_vector(t, n)


# --- alcove geometry ---------------------------------------------------------

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
    return EmbeddedPoint(head(v, n), v.shape, v.level, n)


def classify(x: EmbeddedPoint) -> AlcovePosition:
    """The wall or alcove of x, located on the shape it embeds."""
    return position(Vertex(x.shape, x.level), x.n)


def reflect(x: EmbeddedPoint, j: int) -> tuple[int, ...]:
    """Coordinates of s_{0,j}(x), as a prefix; beyond it coordinates are -i."""
    if j < 1:
        raise ValueError("reflection index must be at least 1")
    upto = max(x.extent, j) + 1
    coords = list(x.coords(upto))
    coords[0], coords[j] = coords[j], coords[0]
    return tuple(coords)


def embedded_path(t: Path, n: int) -> list[EmbeddedPoint]:
    return [embed(Vertex(shape, i), n) for i, shape in enumerate(t)]


def reflection_equal(x: EmbeddedPoint, y: EmbeddedPoint, j: int) -> bool:
    """True when y = s_{0,j}(x)."""
    sx = reflect(x, j)  # beyond this prefix, and beyond y's, coordinates are -i
    upto = max(len(sx) - 1, y.extent)
    return sx + tuple(-i for i in range(len(sx), upto + 1)) == y.coords(upto)


def points_equal(x: EmbeddedPoint, y: EmbeddedPoint) -> bool:
    upto = max(x.extent, y.extent)
    return x.coords(upto) == y.coords(upto)


def reflection_index(v: Vertex, w: Vertex, n: int) -> int | None:
    """The j with phi_n(w) = s_{0,j}(phi_n(v)), if one exists."""
    if v.level != w.level:
        raise ValueError("vertices on different levels")
    x, y = embed(v, n), embed(w, n)
    for j in range(1, max(x.extent, y.extent) + 2):
        if reflection_equal(x, y, j):
            return j
    return None


def npair_reflection_equiv(v: Vertex, w: Vertex, n: int) -> bool:
    """True when the embedded points differ by a head-row swap s_{0,j}."""
    return reflection_index(v, w, n) is not None


def is_n_pair(lam: Partition, mu: Partition, n: int) -> bool:
    """True when mu is lam plus one horizontal strip whose last node has
    content n - |lam|."""
    lam, mu = check_partition(lam), check_partition(mu)
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    if lam == mu:
        return False
    rows = max(len(lam), len(mu))
    diff_rows = [i for i in range(1, rows + 1) if row(lam, i) != row(mu, i)]
    if len(diff_rows) != 1:
        return False
    i = diff_rows[0]
    if row(mu, i) < row(lam, i):
        return False
    return row(mu, i) - i == n - sum(lam)


class EdgeCase(NamedTuple):
    """Diagnosis of a branching edge seen from an alcove-j target."""

    case: str            # SAME_ALCOVE, WALL_J or WALL_J_MINUS_1
    delta: int           # +1 or -1: the source is target -/+ nothing, i.e.
    coordinate: int      # source = target + delta * epsilon_coordinate


def _step(x: EmbeddedPoint, y: EmbeddedPoint) -> tuple[int, int]:
    """Return (delta, i) with y = x + delta*epsilon_i, else raise."""
    upto = max(x.extent, y.extent) + 1
    diffs = [(i, y.coord(i) - x.coord(i))
             for i in range(upto + 1) if y.coord(i) != x.coord(i)]
    if len(diffs) != 1 or abs(diffs[0][1]) != 1:
        raise ValueError("points do not differ by a single unit step")
    i, delta = diffs[0]
    return delta, i


def edge_case(x: EmbeddedPoint, y: EmbeddedPoint) -> EdgeCase:
    """Classify the source y of an edge y -> x whose target lies in an alcove.

    The source sits in the same alcove, on the wall bounding it with the
    previous alcove, or on the wall bounding it with the next one; no other
    position occurs.
    """
    kind, j = classify(x)
    if kind != "alcove":
        raise ValueError("edge classification needs an alcove target")
    if y.level != x.level - 1 or y.n != x.n:
        raise ValueError("not a branching edge")
    delta, i = _step(x, y)
    pos = classify(y)
    if pos == ("alcove", j):
        return EdgeCase(SAME_ALCOVE, delta, i)
    if pos == ("wall", j):
        return EdgeCase(WALL_J, delta, i)
    if j > 1 and pos == ("wall", j - 1):
        return EdgeCase(WALL_J_MINUS_1, delta, i)
    raise ValueError(f"edge source at {pos} breaks the alcove-{j} trichotomy")


def step_residues(t: Path, n: int) -> tuple[int, ...]:
    """Residue of each step of the path, read off the embedded points.

    A step into an even level adds epsilon_j and contributes the new x_j; a
    step into an odd level subtracts epsilon_j and contributes n - 1 - x_j.
    """
    pts = embedded_path(check_path(t), n)
    out = []
    for i in range(1, len(pts)):
        delta, j = _step(pts[i - 1], pts[i])
        xj = pts[i].coord(j)
        out.append(xj if delta == 1 else n - 1 - xj)
    return tuple(out)


def geometric_residue_equivalent(s: Path, t: Path, n: int) -> bool:
    """Decide residue equality of two same-length paths by alcove geometry.

    The paths must agree outside disagreement runs; each run is governed by a
    single wall j: it opens after an agreement point on wall j, the two paths
    are point-by-point head-row swaps s_{0,j} of each other inside (hence sit
    in alcoves j and j+1 in some order), and if the run closes before the top
    level the closing agreement point lies on wall j again.
    """
    s, t = check_path(s), check_path(t)
    if len(s) != len(t):
        raise ValueError("paths of different lengths")
    xs = embedded_path(s, n)
    ys = embedded_path(t, n)
    top = len(s) - 1
    i = 1
    while i <= top:
        if s[i] == t[i]:
            i += 1
            continue
        a = i - 1  # s and t agree here (level 0 and 1 always agree)
        pos = classify(xs[a])
        if pos.kind != "wall":
            return False
        j = pos.index
        while i <= top and s[i] != t[i]:
            if not reflection_equal(xs[i], ys[i], j):
                return False
            i += 1
        if i < top:
            # closing agreement point, interior to the pair of paths
            if classify(xs[i]) != ("wall", j):
                return False
    return True


# --- simple modules ----------------------------------------------------------

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


def simple_dimension_by_paths(v: Vertex, n: int,
                              max_level: int = DEFAULT_MAX_LEVEL) -> int:
    """Dimension of the simple module of v, counted as the paths to v that
    pass is_permissible."""
    return sum(is_permissible(t, n) for t in enumerate_paths(v, max_level))


def simple_dimension_by_alternating_sum(v: Vertex, n: int) -> int:
    """Same number, telescoped down the block chain from v:
    dim L = dim Cell(v) - dim Cell(next) + dim Cell(after next) - ..."""
    if _vanishes(v, n):
        return 0
    chain = block_chain(v, n).chain
    return sum((-1) ** step * cell_dimension(w)
               for step, w in enumerate(chain[chain.index(v):]))


# --- semisimplicity ----------------------------------------------------------

def is_semisimple(k: int, n: int) -> bool:
    """True when every level-k cell module is simple and alone in its block,
    i.e. every block chain is a singleton; stops at the first that is not."""
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    return all(len(block_chain(v, n).chain) == 1 for v in vertices_at_level(k))


def first_semisimple_n(k: int) -> int:
    """Least n at which level k is semisimple, by scanning n upward.

    For even k >= 2 this is k - 1, the closed form the stable level of
    kronecker.py uses.  Odd levels are semisimple at n = 0 and then not
    again until n = k - 1 (tested for odd k <= 15), so for them this
    returns 0; the stable level reads even levels only.
    """
    n = 0
    while not is_semisimple(k, n):
        n += 1
    return n


# --- linkage -----------------------------------------------------------------

def linkage_classes(k: int, n: int, verify: bool = False,
                    max_level: int = DEFAULT_MAX_LEVEL) -> list[tuple[Vertex, ...]]:
    """Partition of the level-k vertices into linkage classes.

    These are the block chains (blocks_at_level).  With verify=True the
    classes are recomputed from raw residue vectors (shared vector joins two
    vertices, transitive closure) and a mismatch raises InternalCheckError.
    A level above max_level is refused either way.
    """
    guard("level", k, "max_level", max_level)
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
    """Union-find closure of "some paths share a residue vector".

    The residue vectors at n of the paths to a vertex are those of each of
    its parents, extended by the residue of the edge between them; they are
    propagated level by level, so no path is built.
    """
    guard("level", k, "max_level", max_level)
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    vectors: dict[Vertex, set[tuple[int, ...]]] = {Vertex((), 0): {()}}
    for level in range(1, k + 1):
        below, vectors = vectors, {}
        for v in vertices_at_level(level):
            out = vectors[v] = set()
            for u in parents(v):
                step = (edge_content(u.shape, v.shape, level).at(n),)
                out.update(r + step for r in below[u])
    verts = list(vectors)
    index = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    owner: dict[tuple[int, ...], int] = {}
    for v in verts:
        for r in vectors[v]:
            parent[find(owner.setdefault(r, index[v]))] = find(index[v])
    groups: dict[int, list[Vertex]] = {}
    for v in verts:
        groups.setdefault(find(index[v]), []).append(v)
    return [tuple(g) for g in groups.values()]


# --- characters and Kronecker coefficients -----------------------------------

def partitions_by_recursion(size: int) -> Iterator[Partition]:
    """All partitions of size in descending lex order: each largest part
    first, then the partitions of the rest with parts no larger."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return rec(size, size)


def _strip_removals(shape: Partition, size: int):
    """Ways to remove a border strip of the given size: (new shape, height).

    Worked on first-column hook coordinates: rows become the distinct numbers
    shape_i + (l - i); removing a strip of length `size` moves one of them
    down by `size` onto an unoccupied value.
    """
    l = len(shape)
    betas = [shape[i] + l - 1 - i for i in range(l)]
    occupied = set(betas)
    for b in betas:
        nb = b - size
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new = sorted((c if c != b else nb for c in betas), reverse=True)
        parts = tuple(c - (l - 1 - i) for i, c in enumerate(new))
        yield tuple(p for p in parts if p), height


@cache
def mn_character_by_strips(shape: Partition, cycle: Partition) -> int:
    """Irreducible character of S_n at a cycle type, by removing border
    strips from validated shapes, n = |shape| = |cycle|."""
    shape, cycle = check_partition(shape), check_partition(cycle)
    if sum(shape) != sum(cycle):
        raise ValueError("shape and cycle type of different sizes")
    if not shape:
        return 1
    total = 0
    for smaller, height in _strip_removals(shape, cycle[0]):
        total += (-1) ** height * mn_character_by_strips(smaller, cycle[1:])
    return total


def kronecker_by_class_sum(a: Partition, b: Partition, c: Partition) -> int:
    """g(a, b, c) as the full class sum of mn_character_by_strips, every
    class evaluated; the division by n! is checked."""
    n = sum(a)
    g, rem = divmod(sum(class_size(mu) * mn_character_by_strips(a, mu)
                        * mn_character_by_strips(b, mu)
                        * mn_character_by_strips(c, mu)
                        for mu in partitions_by_recursion(n)), factorial(n))
    if rem:
        raise AssertionError(f"non-integral coefficient for {a}, {b}, {c}")
    return g


# --- selftest ----------------------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def check_step_residues(max_k: int = 7, max_n: int = 4) -> CheckResult:
    """Geometric step residues must equal content vectors at z = n."""
    count = 0
    for k in range(max_k + 1):
        for v in vertices_at_level(k):
            for t in enumerate_paths(v):
                for n in range(max_n + 1):
                    count += 1
                    if step_residues(t, n) != residue_vector(t, n):
                        return CheckResult(
                            "step_residues", False,
                            f"mismatch at path {t}, n={n}")
    return CheckResult("step_residues", True, f"{count} path/parameter pairs")


def check_geometric_equivalence(max_k: int = 6, max_n: int = 4) -> CheckResult:
    """Wall-interval test must match raw residue-vector equality."""
    count = 0
    for k in range(max_k + 1):
        paths = [t for v in vertices_at_level(k) for t in enumerate_paths(v)]
        for n in range(max_n + 1):
            vectors = {t: residue_vector(t, n) for t in paths}
            for s, t in combinations(paths, 2):
                count += 1
                if geometric_residue_equivalent(s, t, n) != (vectors[s] == vectors[t]):
                    return CheckResult(
                        "geometric_equivalence", False,
                        f"k={k}, n={n}: {s} vs {t}")
    return CheckResult("geometric_equivalence", True, f"{count} path pairs")


def check_linkage(max_k: int = 7, max_n: int = 4) -> CheckResult:
    """Block chains must reproduce the residue-vector linkage closure."""
    for k in range(max_k + 1):
        for n in range(max_n + 1):
            try:
                linkage_classes(k, n, verify=True)
            except InternalCheckError as exc:
                return CheckResult("linkage", False, str(exc))
    return CheckResult("linkage", True,
                       f"levels 0..{max_k}, n 0..{max_n}")


def check_simple_dimensions(max_k: int = 8, max_n: int = 6) -> CheckResult:
    """The three simple-dimension algorithms must agree everywhere."""
    count = 0
    for k in range(max_k + 1):
        for v in vertices_at_level(k):
            for n in range(max_n + 1):
                count += 1
                a = simple_dimension_by_paths(v, n)
                b = simple_dimension(v, n)
                c = simple_dimension_by_alternating_sum(v, n)
                if not a == b == c:
                    return CheckResult(
                        "simple_dimensions", False,
                        f"{v} at n={n}: paths {a}, restriction {b}, "
                        f"alternating {c}")
    return CheckResult("simple_dimensions", True, f"{count} vertex/parameter pairs")


def check_bell_identity(max_k: int = 10) -> CheckResult:
    """Sum of squared cell dimensions at level k is the k-th Bell number."""
    bell, triangle_row = [1], [1]   # Bell triangle
    for _ in range(max_k):
        triangle_row = list(accumulate(triangle_row, initial=triangle_row[-1]))
        bell.append(triangle_row[0])
    for k in range(max_k + 1):
        total = sum(cell_dimension(v) ** 2 for v in vertices_at_level(k))
        if total != bell[k]:
            return CheckResult("bell_identity", False,
                               f"level {k}: {total} != {bell[k]}")
    return CheckResult("bell_identity", True, f"levels 0..{max_k}")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_step_residues, check_geometric_equivalence, check_linkage,
    check_simple_dimensions, check_bell_identity)


def run_selftest() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
