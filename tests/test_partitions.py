"""Partition primitives: parsing, nodes, dominance, enumeration order."""

import pytest
from hypothesis import given, strategies as st

from partalg.branching import parse_path
from partalg.partitions import (addable_nodes, check_partition, dominates,
                                format_partition, node_content,
                                parse_partition, partitions_of,
                                partitions_up_to, removable_nodes, row)


def canonical(parts):
    return tuple(sorted((p for p in parts if p > 0), reverse=True))


partition_st = st.builds(
    canonical, st.lists(st.integers(min_value=0, max_value=8), max_size=8))


def test_check_partition_accepts_and_rejects():
    assert check_partition((3, 1)) == (3, 1)
    assert check_partition([]) == ()
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    with pytest.raises(ValueError):
        check_partition((2, -1))
    # bools are ints to Python, but not parts
    for parts in ((True,), (2, True), (False,)):
        with pytest.raises(ValueError, match="not a partition"):
            check_partition(parts)


def test_parse_and_format():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("[2,1]") == (2, 1)
    assert parse_partition("") == ()
    assert parse_partition("[]") == ()
    assert format_partition((2, 1)) == "2,1"
    assert format_partition(()) == "[]"
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a,b")
    assert parse_partition(" 1") == (1,)
    assert parse_partition("1, 1") == (1, 1)
    # \u0661 is the Arabic-Indic digit one
    for text in ("1_0", "+1", "\u0661", "1,-1", "2,,1"):
        with pytest.raises(ValueError, match="malformed partition"):
            parse_partition(text)
    with pytest.raises(ValueError, match="malformed partition"):
        parse_path("[],[],[+1]")
    for text in ("[],[1", "[],[],[1]]", "[],[]]", "[],,[]", "[],[],",
                 "[],[],[1],1,1", "[[]]", "[[1]]", "[],[[1]]", "[][]"):
        with pytest.raises(ValueError, match="malformed path"):
            parse_path(text)
    for text in ("", "  ", "\t\n"):
        with pytest.raises(ValueError, match="empty path"):
            parse_path(text)
    assert parse_path(" [] , [] ,\t[ 1 ] ") == ((), (), (1,))


@given(partition_st)
def test_parse_format_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam


def test_nodes_small_cases():
    assert addable_nodes(()) == [(1, 1)]
    assert removable_nodes(()) == []
    assert addable_nodes((2, 1)) == [(1, 3), (2, 2), (3, 1)]
    assert removable_nodes((2, 1)) == [(1, 2), (2, 1)]
    assert node_content((2, 5)) == 3


@given(partition_st)
def test_addable_count_exceeds_removable_by_one(lam):
    assert len(addable_nodes(lam)) == len(removable_nodes(lam)) + 1


@given(partition_st)
def test_boundary_node_contents_are_distinct(lam):
    contents = [node_content(a)
                for a in addable_nodes(lam) + removable_nodes(lam)]
    assert len(contents) == len(set(contents))


def test_dominance_graded_by_size():
    # strictly smaller size always dominates
    assert dominates((1,), (2,))
    assert dominates((), (1,))
    assert not dominates((2,), (1,))
    # equal sizes compare by partial sums
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert dominates((2, 1), (2, 1))
    # a classical incomparable pair
    assert not dominates((4, 1, 1), (3, 3))
    assert not dominates((3, 3), (4, 1, 1))


@given(partition_st, partition_st, partition_st)
def test_dominance_partial_order(a, b, c):
    assert dominates(a, a)
    if dominates(a, b) and dominates(b, a):
        assert a == b
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


def test_enumeration_order():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                      (1, 1, 1, 1)]
    assert list(partitions_up_to(3)) == [(), (1,), (2,), (1, 1), (3,),
                                         (2, 1), (1, 1, 1)]


def test_partition_counts():
    # p(0..9) = 1 1 2 3 5 7 11 15 22 30
    counts = [sum(1 for _ in partitions_of(s)) for s in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_row_helper():
    assert row((3, 1), 1) == 3
    assert row((3, 1), 2) == 1
    assert row((3, 1), 5) == 0
