"""Branching graph: vertices, parents, path enumeration and order, dimensions."""

import pytest
from hypothesis import given, strategies as st

from partalg.branching import (Vertex, cell_dimension, check_path,
                               enumerate_paths, format_path, parents,
                               parse_path, path_succ, vertex,
                               vertices_at_level)
from partalg.errors import ResourceLimitError
from partalg.modules import permissible_paths
from partalg.partitions import (addable_nodes, dominates, format_partition,
                                is_partition, removable_nodes, row,
                                strictly_dominates)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def shapes(vs):
    return [v.shape for v in vs]


def canonical(parts):
    return tuple(sorted((p for p in parts if p > 0), reverse=True))


partition_st = st.builds(
    canonical, st.lists(st.integers(min_value=0, max_value=8), max_size=8))


def one_node_apart(small, big):
    """big is small plus one node: nested partitions, one size apart."""
    return (is_partition(small) and is_partition(big)
            and sum(big) == sum(small) + 1
            and all(row(big, i) >= row(small, i)
                    for i in range(1, len(small) + 1)))


def test_vertex_constructor_validates():
    assert vertex((1,), 2) == Vertex((1,), 2)
    with pytest.raises(ValueError):
        vertex((2,), 2)  # too big for the level
    with pytest.raises(ValueError):
        vertex((1, 2), 6)  # not a partition
    with pytest.raises(ValueError):
        vertex((), -1)


def test_vertices_at_level_order():
    assert shapes(vertices_at_level(0)) == [()]
    assert shapes(vertices_at_level(4)) == [(), (1,), (2,), (1, 1)]
    assert shapes(vertices_at_level(6)) == [(), (1,), (2,), (1, 1), (3,),
                                            (2, 1), (1, 1, 1)]
    assert len(vertices_at_level(6)) == 7


def test_parents_examples():
    # even target: same shape or one node removed
    assert shapes(parents(Vertex((1,), 4))) == [(), (1,)]
    assert shapes(parents(Vertex((3,), 6))) == [(2,)]
    assert shapes(parents(Vertex((2, 1), 6))) == [(2,), (1, 1)]
    # odd target: same shape or one node added, size permitting
    assert shapes(parents(Vertex((), 3))) == [(), (1,)]
    assert shapes(parents(Vertex((1,), 5))) == [(1,), (2,), (1, 1)]
    assert shapes(parents(Vertex((2,), 5))) == [(2,)]
    assert parents(Vertex((), 0)) == []


def test_parents_are_dominance_decreasing():
    for k in range(1, 9):
        for v in vertices_at_level(k):
            ps = parents(v)
            for a, b in zip(ps, ps[1:]):
                assert dominates(a.shape, b.shape) and a != b


@given(partition_st)
def test_addable_and_removable_invert(lam):
    """The parents of (lam, 2|lam|) are exactly the one-node removals, those
    of (lam, 2|lam|+3) are lam and then the one-node additions (at
    2|lam|+1 no addition fits), and the next level up undoes each move."""
    s = sum(lam)
    assert parents(Vertex(lam, 2 * s + 1)) == [Vertex(lam, 2 * s)]
    removed = shapes(parents(Vertex(lam, 2 * s)))
    kept, *added = shapes(parents(Vertex(lam, 2 * s + 3)))
    assert len(removed) == len(set(removed)) == len(removable_nodes(lam))
    assert all(one_node_apart(mu, lam) for mu in removed)
    assert kept == lam
    assert len(added) == len(set(added)) == len(addable_nodes(lam))
    assert all(one_node_apart(lam, u) for u in added)
    for u in added:
        assert lam in shapes(parents(Vertex(u, 2 * s + 2)))
    for mu in removed:
        assert lam in shapes(parents(Vertex(mu, 2 * s + 1)))


@given(partition_st)
def test_single_node_moves_are_comparable(lam):
    # removals from lower rows dominate, lam dominates its additions, and
    # additions in higher rows dominate
    s = sum(lam)
    for vs in parents(Vertex(lam, 2 * s)), parents(Vertex(lam, 2 * s + 3)):
        for x, y in zip(vs, vs[1:]):
            assert strictly_dominates(x.shape, y.shape)


def test_is_edge():
    assert Vertex((), 3) in parents(Vertex((), 4))
    assert Vertex((1,), 3) in parents(Vertex((1,), 4))
    assert Vertex((2,), 4) in parents(Vertex((1,), 5))
    assert Vertex((2,), 4) not in parents(Vertex((), 5))
    assert Vertex((), 2) not in parents(Vertex((), 4))


def test_cell_dimensions_level_6():
    dims = {v.shape: cell_dimension(v) for v in vertices_at_level(6)}
    assert dims == {(): 5, (1,): 10, (2,): 6, (1, 1): 6, (3,): 1, (2, 1): 2,
                    (1, 1, 1): 1}


def test_bell_identity_through_level_10():
    for k in range(11):
        assert sum(cell_dimension(v) ** 2
                   for v in vertices_at_level(k)) == BELL[k]


def test_enumerate_paths_counts_match_dimension():
    for k in range(9):
        for v in vertices_at_level(k):
            assert len(enumerate_paths(v)) == cell_dimension(v)


def test_enumerated_paths_are_valid():
    for k in range(8):
        for v in vertices_at_level(k):
            for t in enumerate_paths(v):
                assert check_path(t) == t


def test_enumerate_paths_small():
    assert enumerate_paths(Vertex((), 2)) == [((), (), ())]
    assert len(enumerate_paths(Vertex((1,), 4))) == 3
    assert len(enumerate_paths(Vertex((), 6))) == 5


def test_path_order_total_and_descending():
    for k in range(7):
        for v in vertices_at_level(k):
            paths = enumerate_paths(v)
            for i, s in enumerate(paths):
                for t in paths[i + 1:]:
                    assert path_succ(s, t)
                    assert not path_succ(t, s)
                assert not path_succ(s, s)


def test_path_order_example():
    a = ((), (), (), ())
    b = ((), (), (1,), ())
    assert path_succ(a, b)
    assert not path_succ(b, a)
    with pytest.raises(ValueError):
        path_succ(a, ((), (), (1,), (1,)))  # different endpoints


def test_check_path_rejects_non_edges():
    with pytest.raises(ValueError):
        check_path(((), (1,)))  # level 1 cannot hold a node
    with pytest.raises(ValueError):
        check_path(((1,),))
    with pytest.raises(ValueError):
        check_path(((), (), (1,), (2, 1)))


def test_format_parse_paths():
    t = ((), (), (1,), (1,), (1,), (), ())
    text = format_path(t)
    assert text == "[],[],[1],[1],[1],[],[]"
    assert parse_path(text) == t
    s = ((), (), (1,), (1,), (2,), (2,), (3,))
    assert parse_path(format_path(s)) == s


def test_format_path_matches_per_shape_rendering():
    """format_path renders every path as the per-shape rendering does, and
    parse_path reads it back, for all paths and all permissible paths to
    k <= 10."""
    def reference(t):
        return ",".join("[" + (format_partition(s) if s else "") + "]"
                        for s in t)

    families = []
    for k in range(11):
        for v in vertices_at_level(k):
            families.append(enumerate_paths(v))
            families += [permissible_paths(v, n) for n in range(7)]
    for paths in families:
        for t in paths:
            text = format_path(t)
            assert text == reference(t)
            assert parse_path(text) == t


def test_path_enumeration_bound():
    with pytest.raises(ResourceLimitError):
        enumerate_paths(Vertex((), 16))
    # explicit bound raise works
    assert len(enumerate_paths(Vertex((7,), 15), max_level=15)) > 0
