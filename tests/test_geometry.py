"""Alcove geometry: embedding, classification, swaps, pairs, step residues.

Several production routes here have independent brute-force oracles checked
exhaustively on small ranges: the pair condition against raw node contents,
step residues against content vectors, the wall-interval equivalence test
against raw residue-vector equality.
"""

from itertools import combinations

import pytest

from partalg.branching import Vertex, enumerate_paths, is_edge, parents, vertices_at_level
from partalg.geometry import reflected_vertex
from partalg.oracles import (SAME_ALCOVE, WALL_J, WALL_J_MINUS_1, classify,
                             edge_case, embed, geometric_residue_equivalent,
                             is_n_pair, npair_reflection_equiv, points_equal,
                             reflect, reflection_equal, reflection_index,
                             residue_vector, step_residues)
from partalg.partitions import partitions_up_to


def test_embedding_coordinates():
    x = embed(Vertex((), 6), 2)
    assert x.coords(4) == (2, -1, -2, -3, -4)
    y = embed(Vertex((3,), 6), 2)
    assert y.coords(4) == (-1, 2, -2, -3, -4)
    w = embed(Vertex((1,), 3), 2)  # odd level shifts the head by one
    assert w.coords(2) == (0, 0, -2)
    assert str(x) == "(2 | -1,-2,...)"


def test_classification_examples():
    assert classify(embed(Vertex((), 6), 2)) == ("alcove", 1)
    assert classify(embed(Vertex((3,), 6), 2)) == ("alcove", 2)
    assert classify(embed(Vertex((1,), 3), 2)) == ("wall", 1)
    assert classify(embed(Vertex((2, 1), 6), 2)) == ("wall", 2)
    assert classify(embed(Vertex((1, 1, 1), 6), 2)) == ("wall", 2)
    assert classify(embed(Vertex((), 0), 0)) == ("alcove", 1)


def test_classification_is_a_brute_force_trichotomy():
    # exactly one of: on wall j, or strictly between walls j-1 and j
    for k in range(11):
        for v in vertices_at_level(k):
            for n in range(9):
                x = embed(v, n)
                kind, j = classify(x)
                lo = max(len(v.shape), abs(x.head)) + 2
                matches = []
                for i in range(1, lo + 1):
                    if x.head == x.coord(i):
                        matches.append(("wall", i))
                assert len(matches) <= 1
                if matches:
                    assert (kind, j) == matches[0]
                else:
                    assert kind == "alcove"
                    assert x.coord(j) < x.head
                    if j > 1:
                        assert x.head < x.coord(j - 1)
                    else:
                        assert x.head > x.coord(1)


def test_reflection_examples():
    x = embed(Vertex((), 6), 2)
    assert reflect(x, 1)[:3] == (-1, 2, -2)
    assert reflected_vertex(Vertex((), 6), 2, 1) == Vertex((3,), 6)
    assert reflected_vertex(Vertex((1,), 4), 2, 1) == Vertex((2,), 4)
    # and back: phi_2((3,), 6) = (-1 | 2,-2,...) swaps to phi_2((), 6)
    assert embed(Vertex((3,), 6), 2).coords(2) == reflect(x, 1)
    assert reflected_vertex(Vertex((3,), 6), 2, 1) == Vertex((), 6)
    # leaving the image: size bound
    assert reflected_vertex(Vertex((3,), 6), 2, 2) is None
    # wall points are fixed by their own swap
    w = embed(Vertex((1,), 3), 2)
    assert reflect(w, 1)[:2] == (0, 0)


def test_reflected_vertex_matches_the_coordinate_model():
    """The shape rule lands on the vertex whose embedding is the swapped
    staircase, and on None when no vertex of the level embeds there."""
    for k in range(11):
        level = vertices_at_level(k)
        for n in range(9):
            for v in level:
                x = embed(v, n)
                for j in range(1, k // 2 + 3):
                    hits = [w for w in level
                            if reflection_equal(x, embed(w, n), j)]
                    assert len(hits) <= 1
                    want = hits[0] if hits else None
                    assert reflected_vertex(v, n, j) == want, (v, n, j)


def test_n_pair_examples():
    assert is_n_pair((), (3,), 2)
    assert not is_n_pair((), (2,), 2)
    assert not is_n_pair((), (4,), 2)
    # the corrected example: the added node of ((1),(2)) has content 1 != 1-1
    assert not is_n_pair((1,), (2,), 1)
    assert is_n_pair((1,), (2,), 2)
    assert not is_n_pair((2,), (2,), 2)
    assert not is_n_pair((1,), (2, 1), 2)  # two rows differ
    with pytest.raises(ValueError):
        is_n_pair((1, 2), (2, 2), 1)


def brute_force_n_pair(lam, mu, n):
    """Oracle straight from node sets: mu is lam plus a nonempty strip lying
    in one row, and the rightmost added node has content n - |lam|."""
    boxes = lambda p: {(i + 1, j + 1) for i, part in enumerate(p)
                       for j in range(part)}
    bl, bm = boxes(lam), boxes(mu)
    if not bl <= bm or bl == bm:
        return False
    added = bm - bl
    rows = {i for i, _ in added}
    if len(rows) != 1:
        return False
    last = max(added, key=lambda a: a[1])
    return last[1] - last[0] == n - sum(lam)


def test_n_pair_against_brute_force():
    shapes = list(partitions_up_to(5))
    for lam in shapes:
        for mu in shapes:
            for n in range(6):
                assert is_n_pair(lam, mu, n) == brute_force_n_pair(lam, mu, n), \
                    (lam, mu, n)


def _strip_pair_at_content(lam, mu, target):
    """Oracle: mu is lam plus a one-row strip whose last node has the given
    content."""
    boxes = lambda p: {(i + 1, j + 1) for i, part in enumerate(p)
                       for j in range(part)}
    bl, bm = boxes(lam), boxes(mu)
    if not bl <= bm or bl == bm:
        return False
    added = bm - bl
    if len({i for i, _ in added}) != 1:
        return False
    last = max(added, key=lambda a: a[1])
    return last[1] - last[0] == target


def test_reflection_equivalence_matches_pairs():
    """Embedded points differ by a head-row swap exactly when the shapes form
    an n-pair (even level) or an (n-1)-pair (odd level), smaller size first."""
    shapes = list(partitions_up_to(4))
    for lam in shapes:
        for mu in shapes:
            if sum(lam) >= sum(mu):
                continue
            for n in range(5):
                for k in (2 * sum(mu), 2 * sum(mu) + 1):
                    v, w = Vertex(lam, k), Vertex(mu, k)
                    shift = 0 if k % 2 == 0 else 1
                    expected = _strip_pair_at_content(
                        lam, mu, n - shift - sum(lam))
                    assert npair_reflection_equiv(v, w, n) == expected, \
                        (lam, mu, n, k)


def test_n_pair_shift_matches_reflection_equivalence():
    """The head-row swap relation is the pair condition at n on even levels
    and at n-1 on odd ones, here at the deepest level holding both shapes."""
    shapes = list(partitions_up_to(5))
    for lam in shapes:
        for mu in shapes:
            if sum(lam) >= sum(mu):
                continue
            for n in range(7):
                for k in (10, 11):
                    shift = k % 2
                    if n - shift < 0:
                        continue
                    v, w = Vertex(lam, k), Vertex(mu, k)
                    assert npair_reflection_equiv(v, w, n) == \
                        is_n_pair(lam, mu, n - shift), (lam, mu, n, k)


def test_reflection_pair_examples():
    assert npair_reflection_equiv(Vertex((), 6), Vertex((3,), 6), 2)
    assert reflection_index(Vertex((), 6), Vertex((3,), 6), 2) == 1
    assert not npair_reflection_equiv(Vertex((), 6), Vertex((2,), 6), 2)
    # the corrected pair at n=1 again, now through the embedding
    assert not npair_reflection_equiv(Vertex((1,), 4), Vertex((2,), 4), 1)


def test_reflection_pairs_sit_in_adjacent_alcoves():
    # a swap pair with strictly growing size: alcoves j and j+1
    for k in range(9):
        verts = vertices_at_level(k)
        for n in range(5):
            for v in verts:
                for w in verts:
                    if sum(v.shape) >= sum(w.shape):
                        continue
                    j = reflection_index(v, w, n)
                    if j is None:
                        continue
                    assert classify(embed(v, n)) == ("alcove", j)
                    assert classify(embed(w, n)) == ("alcove", j + 1)


def test_edge_trichotomy_exhaustive():
    for k in range(1, 9):
        for v in vertices_at_level(k):
            for n in range(5):
                x = embed(v, n)
                if classify(x).kind != "alcove":
                    continue
                for u in parents(v):
                    case = edge_case(x, embed(u, n))  # raises if violated
                    assert case.case in (SAME_ALCOVE, WALL_J, WALL_J_MINUS_1)
                    assert case.delta in (-1, 1)
                    # moving into an even level adds a unit, into odd removes
                    assert case.delta == (-1 if k % 2 == 0 else 1)


def test_edge_case_examples():
    x = embed(Vertex((1,), 4), 2)
    y = embed(Vertex((1,), 3), 2)
    assert edge_case(x, y) == (WALL_J, -1, 0)
    assert edge_case(embed(Vertex((), 6), 2), embed(Vertex((), 5), 2)) == \
        (SAME_ALCOVE, -1, 0)
    assert edge_case(embed(Vertex((3,), 6), 2), embed(Vertex((2,), 5), 2)) == \
        (SAME_ALCOVE, -1, 1)
    with pytest.raises(ValueError):
        edge_case(embed(Vertex((1,), 3), 2), embed(Vertex((1,), 2), 2))


def test_companion_vertex_exists():
    """An edge from a wall-j vertex into an alcove-j vertex forces the swap
    partner of the target to be a vertex, joined to the same parent."""
    for k in range(1, 9):
        for v in vertices_at_level(k):
            for n in range(5):
                pos = classify(embed(v, n))
                if pos.kind != "alcove":
                    continue
                j = pos.index
                for u in parents(v):
                    if classify(embed(u, n)) == ("wall", j):
                        w = reflected_vertex(v, n, j)
                        assert w is not None, (v, u, n)
                        assert is_edge(u, w)


def test_step_residues_match_content_everywhere():
    for k in range(7):
        for v in vertices_at_level(k):
            for t in enumerate_paths(v):
                for n in range(5):
                    assert step_residues(t, n) == residue_vector(t, n)


def test_geometric_equivalence_worked_pair():
    t = ((), (), (1,), (1,), (1,), (), ())
    s = ((), (), (1,), (1,), (2,), (2,), (3,))
    assert geometric_residue_equivalent(t, s, 2)
    assert geometric_residue_equivalent(s, t, 2)
    assert not geometric_residue_equivalent(s, t, 3)
    u = ((), (), (1,), (), (1,), (), ())
    assert not geometric_residue_equivalent(t, u, 2)


def test_geometric_equivalence_matches_brute_force():
    for k in range(7):
        paths = [t for v in vertices_at_level(k) for t in enumerate_paths(v)]
        for n in range(5):
            vec = {t: residue_vector(t, n) for t in paths}
            for s, t in combinations(paths, 2):
                assert geometric_residue_equivalent(s, t, n) == \
                    (vec[s] == vec[t]), (s, t, n)


def test_points_equal_handles_ragged_shapes():
    a = embed(Vertex((2, 1), 6), 3)
    b = embed(Vertex((2, 1), 6), 3)
    assert points_equal(a, b)
    assert not points_equal(a, embed(Vertex((3,), 6), 3))
