"""The integer-coded diagram layer against the signed-point routes it
replaced.

The oracles below are the earlier production code, kept verbatim in spirit:
set partitions built left to right and sorted by a per-point key, and a
union-find composition on signed points (i for i, -i for i') that pushes its
result back through the validating constructor.
"""

import random
import time

import pytest

from partalg.diagrams import (AlgebraElement, Diagram, compose, embed_up,
                              enumerate_diagrams, parse_element)
from partalg.zpoly import ZPoly


# --- oracles ------------------------------------------------------------------

def point_key(p):
    return (0, p) if p > 0 else (1, -p)


def sort_key(d):
    return tuple(tuple(point_key(p) for p in b) for b in d.blocks)


def _set_partitions(items):
    """All set partitions of items, blocks built left to right."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [first]] + sub[i + 1:]
        yield [[first]] + sub


def oracle_enumerate(k):
    m = (k + 1) // 2
    if m == 0:
        return [Diagram(0, [])]
    points = [i for i in range(1, m + 1)] + [-i for i in range(1, m + 1)]
    out = []
    if k % 2 == 0:
        for blocks in _set_partitions(points):
            out.append(Diagram(m, blocks))
    else:
        fused = [p for p in points if p not in (m, -m)]
        for blocks in _set_partitions(fused + [m]):
            out.append(Diagram(m, [b + [-m] if m in b else b for b in blocks]))
    out.sort(key=sort_key)
    return out


def oracle_compose(x, y):
    m = x.dots
    # slots 0..m-1 north, m..2m-1 middle, 2m..3m-1 south
    parent = list(range(3 * m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for block in x.blocks:
        slots = [(-p - 1) if p < 0 else (m + p - 1) for p in block]
        for s in slots[1:]:
            union(slots[0], s)
    for block in y.blocks:
        slots = [(m + (-p) - 1) if p < 0 else (2 * m + p - 1) for p in block]
        for s in slots[1:]:
            union(slots[0], s)
    components = {}
    for slot in range(3 * m):
        components.setdefault(find(slot), []).append(slot)
    blocks = []
    deleted = 0
    for slots in components.values():
        pts = [-(s + 1) if s < m else s - 2 * m + 1
               for s in slots if s < m or s >= 2 * m]
        if pts:
            blocks.append(pts)
        else:
            deleted += 1
    return Diagram(m, blocks), deleted


def oracle_format(d):
    def fmt(p):
        return str(p) if p > 0 else f"{-p}'"
    return "[" + ",".join("[" + ",".join(fmt(p) for p in b) + "]"
                          for b in d.blocks) + "]"


def oracle_str(terms):
    """Print a {diagram: ZPoly} sum the way elements always printed."""
    pieces = []
    for d in sorted(terms, key=sort_key):
        c = terms[d]
        if not c:
            continue
        cs = str(c)
        if cs == "1":
            pieces.append(oracle_format(d))
        else:
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            pieces.append(f"{cs}*{oracle_format(d)}")
    return " + ".join(pieces) if pieces else "0"


def oracle_product(a, b):
    terms = {}
    for dx, cx in a.terms.items():
        for dy, cy in b.terms.items():
            d, t = oracle_compose(dx, dy)
            terms[d] = terms.get(d, ZPoly()) + cx * cy * ZPoly((0,) * t + (1,))
    return oracle_str(terms)


# --- differential checks ------------------------------------------------------

@pytest.mark.parametrize("k", range(9))
def test_enumeration_matches_sorted_set_partitions(k):
    assert enumerate_diagrams(k) == oracle_enumerate(k)


def test_compose_matches_signed_points_exhaustively():
    for level in range(6):
        diags = enumerate_diagrams(level)
        for x in diags:
            for y in diags:
                assert compose(x, y) == oracle_compose(x, y), (x, y)


@pytest.mark.parametrize("level", [6, 7, 8])
def test_compose_matches_signed_points_sampled(level):
    diags = enumerate_diagrams(level)
    rng = random.Random(7001 + level)
    for _ in range(2000):
        x, y = rng.choice(diags), rng.choice(diags)
        d, t = compose(x, y)
        want, want_t = oracle_compose(x, y)
        assert (d.codes, d.blocks, t) == (want.codes, want.blocks, want_t)


def test_native_order_is_point_key_order():
    diags = enumerate_diagrams(6)
    shuffled = list(diags)
    random.Random(66).shuffle(shuffled)
    by_key = sorted(shuffled, key=sort_key)
    assert sorted(shuffled) == by_key == diags
    assert sorted(shuffled, key=lambda d: d.codes) == by_key


def test_format_matches_signed_points():
    for k in range(9):
        for d in enumerate_diagrams(k):
            assert str(d) == oracle_format(d)


def _element(rng, diags, level):
    terms = {}
    for d in rng.sample(diags, rng.randint(1, min(12, len(diags)))):
        terms[d] = ZPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
    return AlgebraElement(level, terms)


@pytest.mark.parametrize("level", [4, 5, 6, 7])
def test_products_print_like_the_oracle(level):
    diags = enumerate_diagrams(level)
    rng = random.Random(4099 * level)
    for _ in range(50):
        a, b = _element(rng, diags, level), _element(rng, diags, level)
        assert str(a * b) == oracle_product(a, b)
        assert str(a.star()) == oracle_str(
            {Diagram(d.dots, [[-p for p in blk] for blk in d.blocks]): c
             for d, c in a.terms.items()})
        assert str(embed_up(a)) == oracle_str(
            {Diagram(d.dots + 1, list(d.blocks) + [[d.dots + 1, -d.dots - 1]])
             if level % 2 == 0 else d: c for d, c in a.terms.items()})


BIG = 10 ** 30


def _wide_element(rng, diags, level, terms):
    """Up to terms diagrams, each with up to three coefficients drawn from
    +-10^30, +-1 and 0, so products exercise the packing width."""
    picks = rng.sample(diags, min(terms, len(diags)))
    return AlgebraElement(level, {d: ZPoly([
        rng.choice((BIG, -BIG, rng.randint(-BIG, BIG), 1, -1, 0))
        for _ in range(rng.randint(1, 3))]) for d in picks})


def _cancelling_pair(diags):
    """(x1, x2, y) with x1 y = x2 y, the same number of deleted components,
    and x1 != x2; None when the level has no such triple."""
    for y in diags:
        seen = {}
        for x in diags:
            key = oracle_compose(x, y)
            if key in seen:
                return seen[key], x, y
            seen[key] = x
    return None


@pytest.mark.parametrize("level", range(8))
def test_products_match_the_oracle(level):
    diags = enumerate_diagrams(level)
    rng = random.Random(9001 + level)
    one = AlgebraElement.one(level)
    zero = AlgebraElement(level)
    for _ in range(6):
        a = _wide_element(rng, diags, level, rng.randint(1, 30))
        b = _wide_element(rng, diags, level, rng.randint(1, 30))
        assert str(a * b) == oracle_product(a, b)
        assert a * one == one * a == a
        assert a * zero == zero * a == zero
    # one constant term each at +-10^30: the product's coefficient is the
    # packing bound itself
    for ca, cb in ((BIG, BIG), (BIG, -BIG), (-BIG, -BIG)):
        for la, lb in ((1, 1), (3, 2)):
            x, y = rng.choice(diags), rng.choice(diags)
            a = AlgebraElement(level, {x: ZPoly([ca, -ca, ca][:la])})
            b = AlgebraElement(level, {y: ZPoly([cb, cb][:lb])})
            assert str(a * b) == oracle_product(a, b)
    found = _cancelling_pair(diags)
    if found is not None:
        x1, x2, y = found
        c = ZPoly([BIG, 0, -BIG])
        a = AlgebraElement(level, {x1: c, x2: -c})
        b = AlgebraElement(level, {y: ZPoly([BIG])})
        assert oracle_product(a, b) == "0"
        assert a * b == zero
        # the cancelled output next to surviving ones
        m = x1.dots
        identity = Diagram(m, [(i, -i) for i in range(1, m + 1)])
        a = a + AlgebraElement(level, {identity: c})
        assert str(a * b) == oracle_product(a, b) != "0"


def test_long_coefficients_pack_without_quadratic_cost():
    # packed and unpacked digit by digit, the cost is quadratic in the
    # coefficient length: this square took 13.6 s that way, and 0.11-0.17 s
    # packed by halving (2 vCPUs, Python 3.11); the cap leaves room for slow
    # or instrumented runs
    a = parse_element("(z^20000-3z+2)*[[1,2],[1',2']]"
                      " + (-z^10000+1)*[[1],[2],[1'],[2']]", 4)
    start = time.process_time()
    square = a * a
    assert time.process_time() - start < 5
    assert str(square) == oracle_product(a, a)
