"""Set-partition diagrams and the tower of partition algebras.

A diagram on m dots is a set partition of {1, ..., m, 1', ..., m'}.  The
unprimed points form the southern boundary, the primed points the northern
boundary.  Each point has an integer code: southern i is i-1, northern i' is
m+i-1, so the codes 0, ..., 2m-1 order the points as
1 < 2 < ... < m < 1' < 2' < ... < m'.  A Diagram is the record (dots,
codes): codes is one tuple of blocks, each block a sorted tuple of codes,
blocks sorted by their first code.  Python's own order, hashing and
equality on that tuple are the diagram's; no other form is stored.  The
signed-point view (i for i, -i for i') that the constructor accepts is
derived on demand as `blocks`.  Parsed text, flips, the tower inclusion
and the identity all build through that validating constructor; only
products and enumeration, whose codes are canonical by construction, build
unchecked through _diagram.

enumerate_diagrams generates set partitions directly in this order: the
first block is the least code plus a subset of the other codes, subsets in
lexicographic order, and the codes left over are partitioned the same way.
No sort is needed.

Levels of the tower: level k = 2m is the full diagram algebra on m dots;
level k = 2m-1 is the subalgebra of diagrams whose block containing m also
contains m'.  Multiplication stacks x on top of y, identifying the southern
row of x with the northern row of y; each connected component lying entirely
in the identified middle row is deleted and contributes one factor of z.

Two diagrams meet only at the middle row, so a product works on half
diagrams (Halverson-Ram, "Partition algebras", 2005).  Each operand is split
once: the blocks that touch the middle give a set partition of the middle
row, each part a bitmask of middle points carrying the bitmask of the codes
it reaches on the operand's free side (x's northern row, y's southern row);
blocks that miss the middle pass through whole.  The components of a stack
are the parts of the join of the two middle partitions (the finest set
partition coarser than both), found once per pair of middle partitions, not
per pair of diagrams.  A component's block is then the OR of what x and y
reach from it, and a component reaching nothing is deleted.  Coefficients
are packed as single integers: c_0 + c_1 z + ... becomes c_0 + c_1 2^w + ...
(Kronecker substitution), so multiplying by z^t is a shift by w*t and every
pair adds one integer product.  No output coefficient exceeds
|a|*|b|*min(len)*max|a_i|*max|b_j| in absolute value, where |a|, |b| count
terms, len is the longest coefficient list of an operand and a_i, b_j range
over all integer coefficients; w is chosen so that this bound is below
2^(w-1), and each output's balanced base-2^w digits are its coefficients,
exactly.

Coefficients live in ZPoly (integer polynomials in z), so all products are
exact.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import DEFAULT_MAX_LEVEL, guard
from .zpoly import ZPoly, _poly, parse_zpoly

Point = int  # i for southern i, -i for northern i'


def dots_for_level(k: int) -> int:
    if k < 0:
        raise ValueError("level must be nonnegative")
    return (k + 1) // 2


def _point_label(p) -> str:
    """A signed point as written: i for southern i, i' for northern i'."""
    return f"{-p}'" if isinstance(p, int) and p < 0 else str(p)


class Diagram(namedtuple("Diagram", "dots codes")):
    """A set partition of the 2m boundary points, in canonical form."""

    __slots__ = ()

    def __new__(cls, dots: int, blocks):
        if not isinstance(dots, int) or isinstance(dots, bool) or dots < 0:
            raise ValueError(f"dot count {dots!r} is not a nonnegative "
                             "integer")
        seen: set[int] = set()
        canon = []
        for block in blocks:
            codes = []
            for p in block:
                if (not isinstance(p, int) or isinstance(p, bool) or p == 0
                        or abs(p) > dots):
                    raise ValueError(f"point {_point_label(p)} out of range "
                                     f"for {dots} dots")
                c = p - 1 if p > 0 else dots - p - 1
                if c in seen:
                    raise ValueError(f"point {_point_label(p)} repeated")
                seen.add(c)
                codes.append(c)
            if not codes:
                raise ValueError("empty block")
            canon.append(tuple(sorted(codes)))
        if len(seen) != 2 * dots:
            raise ValueError("blocks do not cover all points")
        canon.sort()
        return _diagram(dots, tuple(canon))

    @property
    def blocks(self) -> tuple[tuple[Point, ...], ...]:
        """The blocks as signed points, in canonical order."""
        m = self.dots
        return tuple(tuple(c + 1 if c < m else m - 1 - c for c in b)
                     for b in self.codes)

    def involute(self) -> "Diagram":
        """Flip the diagram: swap primed and unprimed points."""
        return Diagram(self.dots, [[-p for p in b] for b in self.blocks])

    def __getnewargs__(self):
        # copy and pickle rebuild through the validating constructor
        return self.dots, self.blocks

    def has_joined_last_dot(self) -> bool:
        """True when m and m' share a block (membership in the odd level)."""
        m = self.dots
        return m == 0 or any(m - 1 in b and 2 * m - 1 in b for b in self.codes)

    def __str__(self):
        """Render like [[1,2'],[2],[1']]; primes mark northern points."""
        return format_diagrams(self.dots, (self,))[0]

    __repr__ = __str__


def _diagram(dots: int, codes: tuple) -> Diagram:
    """A Diagram from codes already in canonical form, unchecked."""
    return tuple.__new__(Diagram, (dots, codes))


class _OnDemand(dict):
    """A dict that fills each missing key with fn(key), once."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def format_diagrams(dots: int, diagrams) -> list[str]:
    """Render diagrams on the given dot count as str(d) does, building the
    text of each distinct block once per call."""
    south = [str(i) for i in range(1, dots + 1)]
    labels = south + [f"{i}'" for i in south]   # the text of each code
    block = _OnDemand(lambda b: "[" + ",".join([labels[c] for c in b]) + "]")
    text = block.__getitem__
    return ["[" + ",".join(map(text, d.codes)) + "]" for d in diagrams]


def _point(tok: str, text: str) -> int:
    """The signed point a token of the diagram text names."""
    # ASCII digits and an optional prime; int() alone would also take
    # signs, underscores and non-ASCII digits
    primed = tok.endswith("'")
    digits = tok[:-1] if primed else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed diagram {text!r}")
    return -int(digits) if primed else int(digits)


def parse_diagram(text: str, dots: int | None = None) -> Diagram:
    """Read a diagram written like [[1,2'],[2],[1']] on dots, by default
    the largest point written.  _point names a malformed token, the
    Diagram constructor any other fault."""
    flat = text.strip().replace(" ", "")
    if flat == "[]":
        chunks = []
    elif flat.startswith("[[") and flat.endswith("]]"):
        chunks = [chunk.split(",") for chunk in flat[2:-2].split("],[")]
    else:
        raise ValueError(f"malformed diagram {flat!r}")
    points = [[_point(tok, flat) for tok in toks] for toks in chunks]
    if dots is None:
        dots = max((abs(p) for block in points for p in block), default=0)
    return Diagram(dots, points)


# coefficient lists up to this many digits are packed and split digit by
# digit; longer ones are halved, so that packing and unpacking each cost
# O(L log L), not O(L^2).  Each product of packed coefficients is one int
# multiply (Karatsuba in CPython, O(L^1.585)).
_SHORT = 32


def _pack(coeffs: tuple, w: int) -> int:
    """c_0 + c_1 2^w + c_2 2^(2w) + ... for coeffs (c_0, c_1, ...)."""
    if len(coeffs) <= _SHORT:
        packed = 0
        for v in reversed(coeffs):
            packed = (packed << w) + v
        return packed
    h = len(coeffs) // 2
    return _pack(coeffs[:h], w) + (_pack(coeffs[h:], w) << w * h)


def _unpack(packed: int, w: int) -> list[int]:
    """The balanced base-2^w digits of packed, lowest first, each in
    [-2^(w-1), 2^(w-1)): the coefficients that _pack packed, perhaps
    followed by zeros."""
    half = 1 << (w - 1)
    n = packed.bit_length() // w + 2   # |packed| < 2^(w(n-1)): n digits fit
    # adding the n-digit number whose digits are all half turns each
    # balanced digit d into the plain digit d + half
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)
    return [d - half for d in _digits(packed + half * ones, n, w)]


def _digits(x: int, n: int, w: int) -> list[int]:
    """The n lowest base-2^w digits of x >= 0, lowest first."""
    if n <= _SHORT:
        mask = (1 << w) - 1
        return [x >> w * i & mask for i in range(n)]
    h = n // 2
    low = _digits(x & ((1 << w * h) - 1), h, w)
    return low + _digits(x >> w * h, n - h, w)


def _halves(terms: dict, upper: bool, w: int) -> dict:
    """Split each diagram of terms at the middle row of a product, as the
    upper factor x or the lower factor y; group the diagrams by their middle
    partition.

    Returns {middle partition: [(reach, whole, packed coefficient)]}.  The
    middle partition is a sorted tuple of bitmasks of middle points (x meets
    the middle with its southern code c, y with its northern code m + c).
    reach maps a union of parts, as a bitmask, to the bitmask of free-side
    codes those parts reach; whole lists the bitmasks of the blocks that
    miss the middle."""
    groups: dict[tuple, list] = {}
    for d, c in terms.items():
        m = d.dots
        parts = []
        whole = []
        for b in d.codes:
            middle = free = 0
            for code in b:
                # x's southern and y's northern codes lie on the middle row
                if (code < m) is upper:
                    middle |= 1 << (code % m)
                else:
                    free |= 1 << code
            if middle:
                parts.append((middle, free))
            else:
                whole.append(free)
        parts.sort()
        # the free sides of distinct parts are disjoint: sum is their OR
        reach = _OnDemand(lambda joined, parts=parts:
                          sum([free for middle, free in parts
                               if middle & joined]))
        packed = _pack(c.coeffs, w)
        groups.setdefault(tuple([middle for middle, _ in parts]), []).append(
            (reach, whole, packed))
    return groups


def _join(upper: tuple, lower: tuple) -> list[int]:
    """The finest set partition coarser than both partitions of the middle
    row: the connected components of the stacked middle rows, as bitmasks."""
    joined = list(upper)
    for part in lower:
        rest = []
        for comp in joined:
            if comp & part:
                part |= comp
            else:
                rest.append(comp)
        rest.append(part)
        joined = rest
    return joined


def _product(m: int, a: dict, b: dict) -> dict[Diagram, ZPoly]:
    """The terms of the product of two {diagram: ZPoly} sums on m dots,
    zero coefficients included, in no particular order."""
    if not (a and b):
        return {}
    ca = [c.coeffs for c in a.values()]
    cb = [c.coeffs for c in b.values()]
    bound = (len(a) * len(b) * min(max(map(len, ca)), max(map(len, cb)))
             * max([abs(v) for cs in ca for v in cs])
             * max([abs(v) for cs in cb for v in cs]))
    w = bound.bit_length() + 1
    sums: dict[tuple, int] = {}   # sorted block bitmasks -> packed sum
    lower = _halves(b, False, w)
    for xmid, xs in _halves(a, True, w).items():
        for ymid, ys in lower.items():
            joined = _join(xmid, ymid)
            for xreach, xwhole, cx in xs:
                for yreach, ywhole, cy in ys:
                    masks = [xreach[j] | yreach[j] for j in joined]
                    t = masks.count(0)   # components deleted, sorted first
                    masks += xwhole
                    masks += ywhole
                    masks.sort()
                    key = tuple(masks[t:])
                    sums[key] = sums.get(key, 0) + (cx * cy << w * t)
    # a block's bitmask -> its codes, ascending
    blocks = _OnDemand(lambda mask: tuple([c for c in range(mask.bit_length())
                                           if mask >> c & 1]))
    return {_diagram(m, tuple(sorted(map(blocks.__getitem__, key)))):
            ZPoly(_unpack(packed, w)) for key, packed in sums.items()}


def compose(x: Diagram, y: Diagram) -> tuple[Diagram, int]:
    """Stack x over y; return the resulting diagram and the number of
    deleted middle components.  This is the product of one pair: z^t d is
    x times y with unit coefficients."""
    if x.dots != y.dots:
        raise ValueError("diagrams on different dot counts")
    one = ZPoly((1,))
    ((d, c),) = _product(x.dots, {x: one}, {y: one}).items()
    return d, c.degree


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

    def __new__(cls, level: int, terms=None):
        m = dots_for_level(level)
        clean: dict[Diagram, ZPoly] = {}
        for d, c in (terms or {}).items():
            if d.dots != m:
                raise ValueError(f"diagram {d} has wrong dot count for level {level}")
            if level % 2 == 1 and not d.has_joined_last_dot():
                raise ValueError(f"diagram {d} not in the odd level {level}")
            clean[d] = _poly(c)
            if clean[d] is NotImplemented:
                raise TypeError(f"coefficient {c!r} of {d} is not an int or "
                                "a ZPoly")
        return _element(level, clean)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def __reduce__(self):
        return AlgebraElement, (self.level, self.terms)

    @classmethod
    def one(cls, level: int) -> "AlgebraElement":
        m = dots_for_level(level)   # each dot joined to its primed partner
        return cls(level, {Diagram(m, [(i, -i) for i in range(1, m + 1)]): 1})

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
        return _element(self.level, terms)

    def __sub__(self, other):
        self._check(other)
        return self + other.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        return _element(self.level, {d: c * v for d, v in self.terms.items()})

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an AlgebraElement")
        if self.level != other.level:
            raise ValueError("elements at different levels")

    def __mul__(self, other):
        # products stay in the level (odd levels are closed under
        # composition), so the result is built unchecked
        self._check(other)
        return _element(self.level, _product(dots_for_level(self.level),
                                             self.terms, other.terms))

    def star(self) -> "AlgebraElement":
        """The involution: flip every diagram, keep coefficients."""
        return _element(self.level,
                        {d.involute(): c for d, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join([
            _coefficient_prefix(c) + text for c, text in zip(
                self.terms.values(),
                format_diagrams(dots_for_level(self.level), self.terms))])

    __repr__ = __str__


def _coefficient_prefix(c: ZPoly) -> str:
    """What an element prints before a diagram with this coefficient:
    nothing for 1, else the coefficient (bracketed when it has several
    terms) and "*"."""
    text = str(c)
    if text == "1":
        return ""
    if "+" in text[1:] or "-" in text[1:]:
        text = f"({text})"
    return text + "*"


def _element(level: int, terms: dict) -> AlgebraElement:
    """An AlgebraElement from ZPoly terms on diagrams of the level,
    unchecked; the one place terms are put in diagram order and zero
    coefficients dropped."""
    e = object.__new__(AlgebraElement)
    object.__setattr__(e, "level", level)
    # diagrams of one level share their dots, so pairs sort by codes
    object.__setattr__(e, "terms",
                       dict(sorted([(d, c) for d, c in terms.items() if c])))
    return e


# " + " between terms, not inside a bracketed coefficient like (z + 1)
_TERMS = re.compile(r" \+ (?![^(]*\))")


def parse_element(text: str, level: int) -> AlgebraElement:
    """Parse sums like "[[1,1']] + z*[[1],[1']]" at the given level."""
    m = dots_for_level(level)
    terms: dict[Diagram, ZPoly] = {}
    chunks = _TERMS.split(text)
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk and len(chunks) > 1:
            raise ValueError(f"malformed element {text!r}: empty term")
        if not chunk or chunk == "0":
            continue
        if "*" in chunk:
            coef_text, diag_text = chunk.split("*", 1)
            coef_text = coef_text.strip()
            if coef_text.startswith("(") and coef_text.endswith(")"):
                coef_text = coef_text[1:-1]
            coef = parse_zpoly(coef_text)
        else:
            coef, diag_text = ZPoly((1,)), chunk
        d = parse_diagram(diag_text, m)
        prev = terms.get(d)
        terms[d] = coef if prev is None else prev + coef
    # the constructor checks odd-level membership, zero terms included
    return AlgebraElement(level, terms)


def embed_up(a: AlgebraElement) -> AlgebraElement:
    """Include level k into level k+1.

    Odd to even is the identity on diagrams; even to odd adds a fresh dot
    joined to its own primed partner.
    """
    k = a.level
    if k % 2 == 1:
        return _element(k + 1, a.terms)
    m = dots_for_level(k) + 1
    return _element(k + 1, {Diagram(m, d.blocks + ((m, -m),)): c
                            for d, c in a.terms.items()})
