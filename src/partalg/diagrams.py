"""Set-partition diagrams and the tower of partition algebras.

A diagram on m dots is a set partition of {1, ..., m, 1', ..., m'}.  The
unprimed points form the southern boundary, the primed points the northern
boundary.  Each point has an integer code: southern i is i-1, northern i' is
m+i-1, so the codes 0, ..., 2m-1 order the points as
1 < 2 < ... < m < 1' < 2' < ... < m'.  A diagram is stored as one tuple of
blocks, each block a sorted tuple of codes, blocks sorted by their first
code.  Python's own order, hashing and equality on that tuple are the
diagram's; no other form is stored.  The signed-point view (i for i, -i for
i') that the constructor accepts is derived on demand as `blocks`.

enumerate_diagrams generates set partitions directly in this order: the
first block is the least code plus a subset of the other codes, subsets in
lexicographic order, and the codes left over are partitioned the same way.
No sort is needed.

Levels of the tower: level k = 2m is the full diagram algebra on m dots;
level k = 2m-1 is the subalgebra of diagrams whose block containing m also
contains m'.  Multiplication stacks x on top of y, identifying the southern
row of x with the northern row of y; each connected component lying entirely
in the identified middle row is deleted and contributes one factor of z.

Coefficients live in ZPoly (integer polynomials in z), so all products are
exact.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter

from .errors import DEFAULT_MAX_LEVEL, guard
from .zpoly import ZPoly, parse_zpoly

Point = int  # i for southern i, -i for northern i'

_new = object.__new__
_set = object.__setattr__
_codes = attrgetter("codes")


def dots_for_level(k: int) -> int:
    if k < 0:
        raise ValueError("level must be nonnegative")
    return (k + 1) // 2


class Diagram:
    """A set partition of the 2m boundary points, in canonical form."""

    __slots__ = ("dots", "codes")

    def __init__(self, dots: int, blocks):
        seen: set[int] = set()
        canon = []
        for block in blocks:
            codes = []
            for p in block:
                if (not isinstance(p, int) or isinstance(p, bool) or p == 0
                        or abs(p) > dots):
                    raise ValueError(f"point {p} out of range for {dots} dots")
                c = p - 1 if p > 0 else dots - p - 1
                if c in seen:
                    raise ValueError(f"point {p} repeated")
                seen.add(c)
                codes.append(c)
            if not codes:
                raise ValueError("empty block")
            canon.append(tuple(sorted(codes)))
        if len(seen) != 2 * dots:
            raise ValueError("blocks do not cover all points")
        canon.sort()
        _set(self, "dots", dots)
        _set(self, "codes", tuple(canon))

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    @property
    def blocks(self) -> tuple[tuple[Point, ...], ...]:
        """The blocks as signed points, in canonical order."""
        m = self.dots
        return tuple(tuple(c + 1 if c < m else m - 1 - c for c in b)
                     for b in self.codes)

    def __eq__(self, other):
        # the codes 0..2m-1 fix the dot count, so codes alone decide
        return isinstance(other, Diagram) and self.codes == other.codes

    def __hash__(self):
        return hash(self.codes)

    def __lt__(self, other):
        return self.codes < other.codes

    def involute(self) -> "Diagram":
        """Flip the diagram: swap primed and unprimed points."""
        m = self.dots
        flipped = [tuple([c - m for c in b if c >= m]
                         + [c + m for c in b if c < m]) for b in self.codes]
        flipped.sort()
        return _diagram(m, tuple(flipped))

    def has_joined_last_dot(self) -> bool:
        """True when m and m' share a block (membership in the odd level)."""
        m = self.dots
        if m == 0:
            return True
        for b in self.codes:
            if m - 1 in b:
                return b[-1] == 2 * m - 1
        raise AssertionError("unreachable")

    def __str__(self):
        return format_diagram(self)

    __repr__ = __str__


def _diagram(dots: int, codes: tuple) -> Diagram:
    """A Diagram from codes already in canonical form, unchecked."""
    d = _new(Diagram)
    _set(d, "dots", dots)
    _set(d, "codes", codes)
    return d


@cache
def _labels(m: int) -> tuple[str, ...]:
    """The printed point of each code on m dots."""
    south = [str(i) for i in range(1, m + 1)]
    return tuple(south + [f"{i}'" for i in south])


def format_diagram(d: Diagram) -> str:
    """Render like [[1,2'],[2],[1']]; primes mark northern points."""
    label = _labels(d.dots).__getitem__
    return "[" + ",".join(["[" + ",".join(map(label, b)) + "]"
                           for b in d.codes]) + "]"


def parse_diagram(text: str, dots: int | None = None) -> Diagram:
    text = text.strip().replace(" ", "")
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"malformed diagram {text!r}")
    inner = text[1:-1]
    blocks: list[list[int]] = []
    points: set[int] = set()
    if inner:
        if not (inner.startswith("[") and inner.endswith("]")):
            raise ValueError(f"malformed diagram {text!r}")
        for chunk in inner[1:-1].split("],["):
            block = []
            for tok in chunk.split(","):
                if not tok:
                    raise ValueError(f"malformed diagram {text!r}")
                if tok.endswith("'"):
                    p = -int(tok[:-1])
                else:
                    p = int(tok)
                block.append(p)
            blocks.append(block)
            points.update(block)
    if dots is None:
        dots = max((abs(p) for p in points), default=0)
    return Diagram(dots, blocks)


def identity_diagram(m: int) -> Diagram:
    return _diagram(m, tuple((i, m + i) for i in range(m)))


def compose(x: Diagram, y: Diagram) -> tuple[Diagram, int]:
    """Stack x over y; return the resulting diagram and the number of
    deleted middle components."""
    if x.dots != y.dots:
        raise ValueError("diagrams on different dot counts")
    m = x.dots
    m2 = m + m
    # Union-find on 3m slots: 0..m-1 the middle row (x's southern codes),
    # m..2m-1 the northern row (x's northern codes), 2m..3m-1 the southern
    # row (y's southern codes plus 2m).  x's blocks keep their codes as
    # slots; y's northern code m+i meets x's southern code i in the middle.
    parent = list(range(3 * m))
    for block in x.codes:
        root = block[0]
        for c in block[1:]:
            parent[c] = root
    for block in y.codes:
        root = -1
        for c in block:
            s = c - m if c >= m else c + m2
            while parent[s] != s:
                parent[s] = s = parent[parent[s]]
            if root < 0:
                root = s
            elif s != root:
                parent[s] = root
    # walking the result's codes in order yields blocks already canonical
    groups: dict[int, list[int]] = {}
    for c in range(m2):
        s = c + m2 if c < m else c
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        group = groups.get(s)
        if group is None:
            groups[s] = [c]
        else:
            group.append(c)
    middle = set()
    for s in range(m):
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        middle.add(s)
    return (_diagram(m, tuple(map(tuple, groups.values()))),
            len(middle - groups.keys()))


def _splits(rest: tuple):
    """(chosen, left) for every subset chosen of the sorted tuple rest, in
    lexicographic order of chosen, with left the codes not chosen."""
    yield (), rest
    for i, c in enumerate(rest):
        skipped = rest[:i]
        for chosen, left in _splits(rest[i + 1:]):
            yield (c,) + chosen, skipped + left


def enumerate_diagrams(k: int, max_level: int = DEFAULT_MAX_LEVEL) -> list[Diagram]:
    """Diagram basis of the level-k algebra, canonically sorted.

    Counts are Bell numbers: Bell(k) diagrams at level k, for both parities.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    guard("diagram enumeration level", k, "max_level", max_level)
    m = dots_for_level(k)
    if m == 0:
        return [_diagram(0, ())]
    # odd levels keep m and m' (codes m-1 and 2m-1) in one block
    a, b = (m - 1, 2 * m - 1) if k % 2 == 1 else (-1, -1)
    out = []
    # codes not yet placed -> the choices of their next block, in order:
    # (block, codes left after it); the same leftover recurs many times
    choices: dict[tuple, list] = {}

    def place(prefix: tuple, codes: tuple) -> None:
        options = choices.get(codes)
        if options is None:
            options = choices[codes] = []
            for chosen, left in _splits(codes[1:]):
                block = (codes[0],) + chosen
                if (a in block) == (b in block):
                    options.append((block, left))
        for block, left in options:
            if left:
                place(prefix + (block,), left)
            else:
                out.append(_diagram(m, prefix + (block,)))

    place((), tuple(range(2 * m)))
    return out


class AlgebraElement:
    """A ZPoly-linear combination of diagrams at a fixed level."""

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms=None):
        m = dots_for_level(level)
        clean: dict[Diagram, ZPoly] = {}
        for d, c in (terms or {}).items():
            if isinstance(c, int):
                c = ZPoly.const(c)
            if d.dots != m:
                raise ValueError(f"diagram {d} has wrong dot count for level {level}")
            if level % 2 == 1 and not d.has_joined_last_dot():
                raise ValueError(f"diagram {d} not in the odd level {level}")
            if c:
                clean[d] = clean.get(d, ZPoly()) + c
        _set(self, "level", level)
        _set(self, "terms",
             {d: clean[d] for d in sorted(clean, key=_codes) if clean[d]})

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def from_diagram(cls, d: Diagram, level: int) -> "AlgebraElement":
        return cls(level, {d: ZPoly.const(1)})

    @classmethod
    def zero(cls, level: int) -> "AlgebraElement":
        return cls(level, {})

    @classmethod
    def one(cls, level: int) -> "AlgebraElement":
        return cls.from_diagram(identity_diagram(dots_for_level(level)), level)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.level == other.level and self.terms == other.terms)

    def __hash__(self):
        return hash((self.level, tuple(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, ZPoly()) + c
        return AlgebraElement(self.level, terms)

    def __sub__(self, other):
        return self + other.scale(ZPoly.const(-1))

    def scale(self, c) -> "AlgebraElement":
        if isinstance(c, int):
            c = ZPoly.const(c)
        return AlgebraElement(self.level, {d: c * v for d, v in self.terms.items()})

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an AlgebraElement")
        if self.level != other.level:
            raise ValueError("elements at different levels")

    def __mul__(self, other):
        # Products stay in the level (odd levels are closed under
        # composition), so the result is built unchecked: coefficients add
        # up in integer lists, one ZPoly and one sort at the end.
        self._check(other)
        right = [(dy, cy.coeffs) for dy, cy in other.terms.items()]
        sums: dict[Diagram, list[int]] = {}
        for dx, cx in self.terms.items():
            cx = cx.coeffs
            for dy, cy in right:
                d, t = compose(dx, dy)
                acc = sums.get(d)
                if acc is None:
                    acc = sums[d] = []
                short = t + len(cx) + len(cy) - 1 - len(acc)
                if short > 0:
                    acc.extend([0] * short)
                for i, a in enumerate(cx, t):
                    for j, b in enumerate(cy, i):
                        acc[j] += a * b
        terms = {}
        for d in sorted(sums, key=_codes):
            c = ZPoly(sums[d])
            if c:
                terms[d] = c
        return _element(self.level, terms)

    def star(self) -> "AlgebraElement":
        """The involution: flip every diagram, keep coefficients."""
        flipped = {d.involute(): c for d, c in self.terms.items()}
        return _element(self.level,
                        {d: flipped[d] for d in sorted(flipped, key=_codes)})

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for d, c in self.terms.items():
            cs = str(c)
            if cs == "1":
                pieces.append(format_diagram(d))
            else:
                if "+" in cs[1:] or "-" in cs[1:]:
                    cs = f"({cs})"
                pieces.append(f"{cs}*{format_diagram(d)}")
        return " + ".join(pieces)

    __repr__ = __str__


def _element(level: int, terms: dict) -> AlgebraElement:
    """An AlgebraElement from nonzero terms of the level already in
    canonical order, unchecked."""
    e = _new(AlgebraElement)
    _set(e, "level", level)
    _set(e, "terms", terms)
    return e


def parse_element(text: str, level: int) -> AlgebraElement:
    """Parse sums like "[[1,1']] + z*[[1],[1']]" at the given level."""
    m = dots_for_level(level)
    terms: dict[Diagram, ZPoly] = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk or chunk == "0":
            continue
        if "*" in chunk:
            coef_text, diag_text = chunk.split("*", 1)
            coef_text = coef_text.strip()
            if coef_text.startswith("(") and coef_text.endswith(")"):
                coef_text = coef_text[1:-1]
            coef = parse_zpoly(coef_text)
        else:
            coef, diag_text = ZPoly.const(1), chunk
        d = parse_diagram(diag_text.strip(), m)
        terms[d] = terms.get(d, ZPoly()) + coef
    return AlgebraElement(level, terms)


def embed_up(a: AlgebraElement) -> AlgebraElement:
    """Include level k into level k+1.

    Odd to even is the identity on diagrams; even to odd adds a fresh dot
    joined to its own primed partner.
    """
    k = a.level
    if k % 2 == 1:
        return _element(k + 1, dict(a.terms))
    m = dots_for_level(k)
    # northern codes move up by one to make room for the new southern code
    # m; its block (m, 2m+1) sorts after every block opening with a southern
    # code, and the shift keeps the order of the other diagrams
    terms = {}
    for d, c in a.terms.items():
        blocks = [tuple([p if p < m else p + 1 for p in b]) for b in d.codes]
        at = sum(1 for b in d.codes if b[0] < m)
        blocks.insert(at, (m, 2 * m + 1))
        terms[_diagram(m + 1, tuple(blocks))] = c
    return _element(k + 1, terms)
