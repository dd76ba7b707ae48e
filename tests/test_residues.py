"""Content vectors, residues, and linkage classes against brute force."""

import pytest

from partalg.branching import enumerate_paths, vertices_at_level
from partalg.oracles import (brute_force_linkage_classes, content_vector,
                             linkage_classes, residue_equivalent,
                             residue_vector)
from partalg.zpoly import ZPoly

T = ((), (), (1,), (1,), (1,), (), ())
S = ((), (), (1,), (1,), (2,), (2,), (3,))


def test_content_vector_worked_examples():
    assert [str(c) for c in content_vector(T)] == ["0", "0", "1", "z-1", "z", "z"]
    assert [str(c) for c in content_vector(S)] == ["0", "0", "1", "1", "2", "2"]


def test_content_values_evaluate():
    assert ZPoly((-1, 1))(2) == 1
    assert ZPoly((3,))(7) == 3
    assert str(ZPoly((0, 1))) == "z"
    assert str(ZPoly((-1, 1))) == "z-1"
    assert str(ZPoly((2, 1))) == "z+2"


def test_residue_vectors_at_two():
    assert residue_vector(T, 2) == (0, 0, 1, 1, 2, 2)
    assert residue_vector(S, 2) == (0, 0, 1, 1, 2, 2)
    assert residue_equivalent(T, S, 2)
    assert not residue_equivalent(T, S, 3)


def test_residue_rejects_bad_input():
    with pytest.raises(ValueError):
        residue_vector(T, -1)
    with pytest.raises(ValueError):
        residue_equivalent(T, S[:5], 2)


def classes_as_shapes(classes):
    return sorted(tuple(sorted(v.shape for v in c)) for c in classes)


def test_linkage_level_6_n_2():
    got = classes_as_shapes(linkage_classes(6, 2))
    assert got == sorted([
        ((), (3,)),
        ((1,), (2,)),
        ((1, 1),),
        ((2, 1),),
        ((1, 1, 1),),
    ])


def test_linkage_level_4():
    assert classes_as_shapes(linkage_classes(4, 2)) == sorted([
        ((),), ((1,), (2,)), ((1, 1),)])
    # level 2 is semisimple for every n >= 1
    for n in (1, 2, 3, 5):
        assert all(len(c) == 1 for c in linkage_classes(2, n))
    assert classes_as_shapes(linkage_classes(2, 0)) == [((), (1,))]


def test_linkage_classes_partition_the_level():
    for k in (5, 6, 7):
        for n in (0, 1, 2, 3):
            classes = linkage_classes(k, n)
            seen = [v for c in classes for v in c]
            assert sorted(seen) == sorted(vertices_at_level(k))
            assert len(seen) == len(set(seen))


def test_verified_linkage_agrees_with_brute_force():
    for k in range(8):
        for n in range(5):
            linkage_classes(k, n)  # raises on mismatch


def test_brute_force_closure_directly():
    got = classes_as_shapes(brute_force_linkage_classes(6, 2))
    assert got == classes_as_shapes(linkage_classes(6, 2))


def test_residue_vectors_constant_on_blocks_only():
    # paths to vertices in different blocks never share a residue vector
    k, n = 6, 2
    classes = {frozenset(c) for c in linkage_classes(k, n)}
    block_of = {}
    for c in classes:
        for v in c:
            block_of[v] = c
    vectors = {}
    for v in vertices_at_level(k):
        for t in enumerate_paths(v):
            r = residue_vector(t, n)
            if r in vectors:
                assert block_of[vectors[r]] == block_of[v]
            else:
                vectors[r] = v
