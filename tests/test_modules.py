"""Block chains, decomposition rows, permissibility, simple/radical dimensions,
restriction, semisimplicity."""

import pytest

from partalg.branching import Vertex, cell_dimension, vertices_at_level
from partalg.modules import (block_chain, blocks_at_level, decomposition_row,
                             permissible_paths, radical_dimension,
                             restrict_cell, restrict_simple, simple_dimension)
from partalg.oracles import (classify, embed, first_semisimple_n,
                             is_permissible, is_semisimple, reflection_index,
                             simple_dimension_by_alternating_sum,
                             simple_dimension_by_paths)


def chain_shapes(v, n):
    return [w.shape for w in block_chain(v, n)]


def test_block_chain_examples():
    assert chain_shapes(Vertex((), 6), 2) == [(), (3,)]
    assert chain_shapes(Vertex((3,), 6), 2) == [(), (3,)]
    assert chain_shapes(Vertex((1,), 6), 2) == [(1,), (2,)]
    assert chain_shapes(Vertex((2, 1), 6), 2) == [(2, 1)]
    assert chain_shapes(Vertex((), 4), 2) == [()]
    assert len(block_chain(Vertex((), 6), 2)) == 2


def test_block_chain_at_n_zero():
    # the chain through the empty shape at n=0 climbs the single-column shapes
    assert chain_shapes(Vertex((), 2), 0) == [(), (1,)]
    assert chain_shapes(Vertex((), 4), 0) == [(), (1,), (1, 1)]
    assert chain_shapes(Vertex((), 6), 0) == [(), (1,), (1, 1), (1, 1, 1)]


def test_chain_sizes_strictly_increase():
    """Chains start in alcove 1 (or are a lone wall vertex), member i + 1 is
    the s_{0,i+1} image of member i, and sizes strictly increase."""
    for k in range(11):
        for n in range(9):
            for v in vertices_at_level(k):
                chain = block_chain(v, n)
                assert v in chain
                sizes = [sum(w.shape) for w in chain]
                assert sizes == sorted(set(sizes))
                if classify(embed(v, n)).kind == "wall":
                    assert chain == (v,)
                else:
                    assert classify(embed(chain[0], n)) == ("alcove", 1)
                for i in range(len(chain) - 1):
                    assert reflection_index(chain[i], chain[i + 1], n) == i + 1


def test_chains_partition_each_level():
    for k in range(9):
        for n in range(5):
            chains = blocks_at_level(k, n)
            members = [v for c in chains for v in c]
            assert sorted(members) == sorted(vertices_at_level(k))


def test_decomposition_rows():
    row = decomposition_row(Vertex((), 6), 2)
    assert [(w.shape, m) for w, m in row] == [((), 1), ((3,), 1)]
    row = decomposition_row(Vertex((3,), 6), 2)
    assert [(w.shape, m) for w, m in row] == [((3,), 1)]
    row = decomposition_row(Vertex((2, 1), 6), 2)
    assert [(w.shape, m) for w, m in row] == [((2, 1), 1)]


def test_decomposition_vanishing_row_at_n_zero():
    # even level, n=0, empty shape: the cell is the simple of (1)
    row = decomposition_row(Vertex((), 2), 0)
    assert [(w.shape, m) for w, m in row] == [((1,), 1)]
    row = decomposition_row(Vertex((), 8), 0)
    assert [(w.shape, m) for w, m in row] == [((1,), 1)]
    # level 0 is exempt: the algebra is the ground field
    row = decomposition_row(Vertex((), 0), 0)
    assert [(w.shape, m) for w, m in row] == [((), 1)]


def test_decomposition_bookkeeping():
    """Factor dimensions sum to the cell dimension, levels to 8, n to 6."""
    for k in range(9):
        for n in range(7):
            for v in vertices_at_level(k):
                row = decomposition_row(v, n)
                total = sum(m * simple_dimension(w, n) for w, m in row)
                assert total == cell_dimension(v), (v, n)


def test_permissible_worked_triple():
    s = ((), (), (1,), (), (1,), (), ())
    t = ((), (), (1,), (1,), (1,), (), ())
    u = ((), (), (1,), (1,), (2,), (2,), (3,))
    assert is_permissible(s, 2)
    assert not is_permissible(t, 2)
    assert is_permissible(u, 2)


def test_permissible_path_counts():
    assert len(permissible_paths(Vertex((), 6), 2)) == 4
    assert len(permissible_paths(Vertex((1,), 6), 2)) == 4
    # wall endpoint: everything is permissible
    v = Vertex((1,), 3)
    assert len(permissible_paths(v, 2)) == cell_dimension(v)
    # n=0, even level, empty shape: nothing survives
    assert permissible_paths(Vertex((), 2), 0) == []
    assert permissible_paths(Vertex((), 6), 0) == []
    # but level 0 keeps its one empty path
    assert len(permissible_paths(Vertex((), 0), 0)) == 1


def test_simple_dimension_examples():
    assert simple_dimension(Vertex((), 6), 2) == 4
    assert simple_dimension(Vertex((1,), 6), 2) == 4
    assert simple_dimension(Vertex((2,), 6), 2) == 6
    assert simple_dimension(Vertex((), 2), 0) == 0
    assert simple_dimension(Vertex((1,), 2), 0) == 1
    assert simple_dimension(Vertex((), 0), 0) == 1
    with pytest.raises(ValueError):
        simple_dimension(Vertex((), 0), -1)


def test_simple_dimension_routes_agree():
    for k in range(9):
        for v in vertices_at_level(k):
            for n in range(7):
                a = simple_dimension_by_paths(v, n)
                b = simple_dimension(v, n)
                c = simple_dimension_by_alternating_sum(v, n)
                assert a == b == c, (v, n, a, b, c)


def test_radical_dimensions():
    assert radical_dimension(Vertex((), 6), 2) == 1
    assert radical_dimension(Vertex((3,), 6), 2) == 0
    assert radical_dimension(Vertex((), 2), 0) == 1
    # wall vertices have simple cells
    assert radical_dimension(Vertex((2, 1), 6), 2) == 0


def test_restrict_cell_is_parent_list():
    v = Vertex((1,), 6)
    assert [u.shape for u in restrict_cell(v)] == [(), (1,)]
    with pytest.raises(ValueError):
        restrict_cell(Vertex((), 0))


def test_restrict_simple_examples():
    assert [u.shape for u in restrict_simple(Vertex((), 6), 2)] == [()]
    # the same-shape parent lies on wall 1 and is dropped
    assert [u.shape for u in restrict_simple(Vertex((1,), 6), 2)] == [()]
    assert [u.shape for u in restrict_simple(Vertex((3,), 6), 2)] == [(2,)]
    with pytest.raises(ValueError):
        restrict_simple(Vertex((2, 1), 6), 2)  # wall vertex: refused


def test_restriction_recursion_bookkeeping():
    """For alcove vertices the simple dimension is the sum over the retained
    parents; checked against the path count route."""
    for k in range(1, 9):
        for v in vertices_at_level(k):
            for n in range(7):
                if classify(embed(v, n)).kind != "alcove":
                    continue
                kept = restrict_simple(v, n)
                assert simple_dimension(v, n) == \
                    sum(simple_dimension(u, n) for u in kept)


def test_permissibility_grows_with_n_in_the_first_alcove():
    # a path surviving at n also survives at n+1 when its endpoint stays
    # in the first alcove
    for k in range(8):
        for v in vertices_at_level(k):
            for n in range(5):
                if classify(embed(v, n)) != ("alcove", 1):
                    continue
                now = set(permissible_paths(v, n))
                later = set(permissible_paths(v, n + 1))
                assert now <= later, (v, n)


def test_semisimplicity():
    assert not is_semisimple(4, 2)
    assert is_semisimple(4, 3)
    assert not is_semisimple(6, 2)
    evens = range(2, 41, 2)
    assert [first_semisimple_n(k) for k in evens] == [k - 1 for k in evens]
    # degenerate small levels
    assert is_semisimple(0, 0)
    assert is_semisimple(1, 0)
    assert not is_semisimple(2, 0)


def test_semisimple_iff_every_block_chain_is_a_singleton():
    for k in range(13):
        for n in range(k + 1):
            assert is_semisimple(k, n) == all(
                len(chain) == 1 for chain in blocks_at_level(k, n)), (k, n)


def test_semisimple_iff_every_simple_fills_its_cell():
    for k in range(8):
        for n in range(6):
            expected = all(
                simple_dimension(v, n) == cell_dimension(v)
                and len(block_chain(v, n)) == 1
                for v in vertices_at_level(k))
            assert is_semisimple(k, n) == expected
