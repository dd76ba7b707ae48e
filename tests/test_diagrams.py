"""Diagram basis, composition with deletion count, and the algebra axioms."""

import random

import pytest

from partalg.diagrams import (AlgebraElement, Diagram, compose, dots_for_level,
                              embed_up, enumerate_diagrams, format_diagram,
                              identity_diagram, parse_diagram, parse_element)
from partalg.errors import ResourceLimitError
from partalg.zpoly import ZPoly

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_basis_sizes_are_bell_numbers():
    for k in range(9):
        assert len(enumerate_diagrams(k)) == BELL[k], k


def test_enumeration_is_deduplicated_and_sorted():
    diags = enumerate_diagrams(5)
    assert len(set(diags)) == len(diags)
    assert diags == sorted(diags)
    # odd level: last dot joined to its partner
    assert all(d.has_joined_last_dot() for d in diags)


def test_dots_for_level():
    assert [dots_for_level(k) for k in range(7)] == [0, 1, 1, 2, 2, 3, 3]


def test_parse_format_round_trip():
    for k in (2, 3, 4):
        for d in enumerate_diagrams(k):
            assert parse_diagram(format_diagram(d), d.dots) == d


def test_format_example():
    d = Diagram(2, [[1, -2], [2], [-1]])
    assert format_diagram(d) == "[[1,2'],[2],[1']]"


def test_diagram_validation():
    with pytest.raises(ValueError):
        Diagram(2, [[1, 2], [-1]])  # misses 2'
    with pytest.raises(ValueError):
        Diagram(1, [[1, -1, 2]])  # out of range
    with pytest.raises(ValueError):
        Diagram(1, [[1], [1], [-1]])  # repeated


def test_parse_errors_speak_of_diagrams_and_primed_points():
    text = "[[1,1']]+[[1],[1']]"
    with pytest.raises(ValueError) as exc:
        parse_diagram(text)
    assert str(exc.value) == f"malformed diagram {text!r}"
    with pytest.raises(ValueError, match=r"^point 3' out of range for 1 dots$"):
        parse_diagram("[[1,3']]", 1)
    with pytest.raises(ValueError, match=r"^point 1' repeated$"):
        parse_diagram("[[1,1'],[1']]")


def test_bool_points_rejected():
    # True == 1 as an int, but it is not a point
    with pytest.raises(ValueError):
        Diagram(1, [[True, -1]])
    with pytest.raises(ValueError):
        Diagram(1, [[1], [False]])
    assert str(Diagram(1, [[1, -1]])) == "[[1,1']]"


def test_identity_composes_trivially():
    for m in (1, 2, 3):
        e = identity_diagram(m)
        for d in enumerate_diagrams(2 * m):
            assert compose(e, d) == (d, 0)
            assert compose(d, e) == (d, 0)


def test_single_dot_idempotent_picks_up_z():
    e = parse_diagram("[[1],[1']]")
    assert compose(e, e) == (e, 1)
    elt = AlgebraElement.from_diagram(e, 2)
    assert elt * elt == elt.scale(ZPoly.z())


def test_two_dot_worked_product():
    d = parse_diagram("[[1,1'],[2],[2']]")
    assert compose(d, d) == (d, 1)


def test_composition_mixes_blocks():
    x = parse_diagram("[[1,2],[1',2']]")
    y = parse_diagram("[[1,1'],[2,2']]")
    assert compose(x, y) == (x, 0)
    assert compose(y, x) == (x, 0)


def test_deleted_component_count_is_at_most_m():
    for m in (1, 2):
        diags = enumerate_diagrams(2 * m)
        for x in diags:
            for y in diags:
                _, t = compose(x, y)
                assert 0 <= t <= m
    diags = enumerate_diagrams(6)
    rng = random.Random(353)
    for _ in range(500):
        x, y = rng.choice(diags), rng.choice(diags)
        _, t = compose(x, y)
        assert 0 <= t <= 3


def _random_element(rng, diags, level):
    terms = {}
    width = rng.randint(1, min(3, len(diags)))
    for d in rng.sample(diags, width):
        terms[d] = ZPoly([rng.randint(-2, 2), rng.randint(-1, 1)])
    return AlgebraElement(level, terms)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_associativity_on_random_triples(level):
    diags = enumerate_diagrams(level)
    rng = random.Random(level * 7919)
    for _ in range(200):
        a, b, c = (_random_element(rng, diags, level) for _ in range(3))
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_star_is_an_antihomomorphism(level):
    diags = enumerate_diagrams(level)
    rng = random.Random(level * 104729)
    for _ in range(200):
        a, b = (_random_element(rng, diags, level) for _ in range(2))
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


def test_star_on_diagrams_flips():
    d = parse_diagram("[[1,2'],[2],[1']]")
    assert d.involute() == parse_diagram("[[1',2],[2'],[1]]")
    assert d.involute().involute() == d


def test_odd_levels_are_closed_under_product():
    for level in (1, 3, 5):
        diags = enumerate_diagrams(level)
        for x in diags[:8]:
            for y in diags[:8]:
                d, _ = compose(x, y)
                assert d.has_joined_last_dot()


def test_embed_up_is_a_homomorphism():
    for level in (1, 2, 3, 4):
        diags = enumerate_diagrams(level)
        rng = random.Random(level)
        for _ in range(40):
            a = _random_element(rng, diags, level)
            b = _random_element(rng, diags, level)
            assert embed_up(a) * embed_up(b) == embed_up(a * b)
            assert embed_up(a) + embed_up(b) == embed_up(a + b)


def test_embed_up_shapes():
    # odd to even keeps the diagram, even to odd adds a joined dot
    e1 = AlgebraElement.one(1)
    assert embed_up(e1) == AlgebraElement.one(2)
    e2 = AlgebraElement.one(2)
    up = embed_up(e2)
    assert up.level == 3
    (d,) = up.terms
    assert d == identity_diagram(2)


def test_element_parse_and_str():
    # terms print in canonical diagram order regardless of input order
    elt = parse_element("[[1,1']] + z*[[1],[1']]", 2)
    assert str(elt) == "z*[[1],[1']] + [[1,1']]"
    assert parse_element(str(elt), 2) == elt
    zero = parse_element("0", 2)
    assert zero == AlgebraElement.zero(2)


def test_odd_level_membership_enforced():
    bad = parse_diagram("[[1],[2],[1'],[2']]")
    with pytest.raises(ValueError):
        AlgebraElement.from_diagram(bad, 3)
    with pytest.raises(ValueError):
        AlgebraElement.from_diagram(identity_diagram(1), 3)


def test_level_mismatch_refused():
    a = AlgebraElement.one(2)
    b = AlgebraElement.one(4)
    with pytest.raises(ValueError):
        a * b


def test_enumeration_bound():
    with pytest.raises(ResourceLimitError):
        enumerate_diagrams(15)
    with pytest.raises(ValueError):
        enumerate_diagrams(-1)
