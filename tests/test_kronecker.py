"""Characters of symmetric groups, Kronecker coefficients, the stable limit."""

from math import factorial

import pytest

from partalg.errors import ResourceLimitError
from partalg.kronecker import (check_monotone, class_size, cycle_types,
                               character_degree, first_padded_n,
                               kronecker_coefficient, kronecker_sequence,
                               mn_character, pad, padded_kronecker,
                               stable_kronecker)
from partalg.partitions import partitions_of, partitions_up_to


def hook_degree(shape):
    """Degree by the hook length product, as an independent check."""
    n = sum(shape)
    prod = 1
    for i, part in enumerate(shape):
        for j in range(part):
            col = sum(1 for p in shape if p > j)
            prod *= (part - j) + (col - i) - 1
    return factorial(n) // prod


def test_class_sizes():
    sizes = {mu: class_size(mu) for mu in cycle_types(4)}
    assert sizes == {(4,): 6, (3, 1): 8, (2, 2): 3, (2, 1, 1): 6,
                     (1, 1, 1, 1): 1}
    for n in range(8):
        assert sum(class_size(mu) for mu in cycle_types(n)) == factorial(n)


def test_character_table_s3():
    order = cycle_types(3)
    assert order == [(3,), (2, 1), (1, 1, 1)]
    table = {shape: [mn_character(shape, mu) for mu in order]
             for shape in partitions_of(3)}
    assert table == {(3,): [1, 1, 1],
                     (2, 1): [-1, 0, 2],
                     (1, 1, 1): [1, -1, 1]}


def test_character_examples():
    # the trivial row is all ones, the sign row is the cycle-type sign
    for mu in cycle_types(5):
        assert mn_character((5,), mu) == 1
        assert mn_character((1,) * 5, mu) == (-1) ** (5 - len(mu))
    assert mn_character((1, 1, 1), (3,)) == 1
    assert mn_character((2, 1), (1, 1, 1)) == 2
    with pytest.raises(ValueError):
        mn_character((2, 1), (2,))


def test_degrees_match_hook_lengths():
    for n in range(9):
        for shape in partitions_of(n):
            assert character_degree(shape) == hook_degree(shape)


def test_row_orthogonality():
    for n in range(1, 8):
        shapes = list(partitions_of(n))
        for a in shapes:
            for b in shapes:
                total = sum(class_size(mu) * mn_character(a, mu)
                            * mn_character(b, mu) for mu in cycle_types(n))
                assert total == (factorial(n) if a == b else 0)


def test_kronecker_symmetry():
    for n in range(2, 6):
        shapes = list(partitions_of(n))
        for a in shapes:
            for b in shapes:
                for c in shapes:
                    g = kronecker_coefficient(a, b, c)
                    assert g == kronecker_coefficient(b, a, c)
                    assert g == kronecker_coefficient(a, c, b)


def test_kronecker_degree_identity():
    # tensor product dimensions: sum_c g(a,b,c) deg(c) = deg(a) deg(b)
    for n in range(1, 8):
        shapes = list(partitions_of(n))
        for a in shapes:
            for b in shapes:
                total = sum(kronecker_coefficient(a, b, c)
                            * character_degree(c) for c in shapes)
                assert total == character_degree(a) * character_degree(b)


def test_tensor_square_tables():
    def square(a):
        n = sum(a)
        return {c: g for c in partitions_of(n)
                if (g := kronecker_coefficient(a, a, c))}

    assert square((1, 1)) == {(2,): 1}
    assert square((2, 1)) == {(3,): 1, (2, 1): 1, (1, 1, 1): 1}
    assert square((3, 1)) == {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


def test_kronecker_with_trivial_and_sign():
    for n in range(1, 6):
        for a in partitions_of(n):
            for b in partitions_of(n):
                expected = 1 if a == b else 0
                assert kronecker_coefficient(a, b, (n,)) == expected
                sign_twist = tuple(sorted(
                    (sum(1 for p in a if p > j) for j in range(a[0])),
                    reverse=True)) if a else ()
                assert kronecker_coefficient(a, (1,) * n, b) == \
                    (1 if b == sign_twist else 0)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        kronecker_coefficient((2,), (1, 1), (1,))


def test_padding():
    assert pad((1,), 1).valid is False
    assert pad((1,), 2).padded == (1, 1)
    assert pad((2, 1), 5).padded == (2, 2, 1)
    assert pad((), 0).padded == ()
    assert pad((), 4).padded == (4,)
    assert pad((3,), 5).valid is False
    assert pad((3,), 6).padded == (3, 3)
    assert first_padded_n((1,), (2, 1), ()) == 5


def test_padded_kronecker_reports_validity():
    g, valid = padded_kronecker((1,), (1,), (1,), 1)
    assert (g, valid) == (0, False)
    g, valid = padded_kronecker((1,), (1,), (1,), 3)
    assert (g, valid) == (1, True)


def test_sequence_one_one_one():
    entries = kronecker_sequence((1,), (1,), (1,), 5)
    assert [(e.n, e.g, e.valid) for e in entries] == [
        (0, 0, False), (1, 0, False), (2, 0, True),
        (3, 1, True), (4, 1, True), (5, 1, True)]
    with pytest.raises(ValueError):
        kronecker_sequence((1,), (1,), (1,), 1, n_min=3)


def test_stable_values():
    assert stable_kronecker((1,), (1,), (1,)) == (1, 3)
    assert stable_kronecker((2, 1), (2, 1), (2, 1)) == (9, 11)
    # a limit of zero still reports the certified level
    assert stable_kronecker((3, 3), (), (3, 2, 2)) == (0, 11)


def test_stable_against_empty_third_slot():
    # the limit of g(lam, mu, empty) is the Kronecker delta
    shapes = list(partitions_up_to(3))
    for a in shapes:
        for b in shapes:
            g, _ = stable_kronecker(a, b, ())
            assert g == (1 if a == b else 0)


def test_stable_bounds_the_sequence():
    triples = [((1,), (1,), (1,)), ((2,), (2,), (2,)),
               ((1, 1), (2,), (1, 1)), ((2,), (1, 1), (3,))]
    for lam, mu, nu in triples:
        stable, n0 = stable_kronecker(lam, mu, nu)
        for entry in kronecker_sequence(lam, mu, nu, n0 + 2):
            assert entry.g <= stable
            if entry.n >= n0:
                assert entry.g == stable


def test_monotone_reports():
    report = check_monotone((1,), (1,), (1,))
    assert report.passed
    assert report.stable == 1
    assert report.stable_at == 3
    assert report.first_flat == 3
    assert [e.g for e in report.entries] == [0, 0, 0, 1, 1, 1]

    report = check_monotone((2,), (1, 1), (1, 1))
    assert report.passed
    assert report.violations == ()
    assert report.entries[-1].g == report.stable


def test_monotone_across_small_triples():
    shapes = [(), (1,), (2,), (1, 1)]
    for lam in shapes:
        for mu in shapes:
            for nu in shapes:
                report = check_monotone(lam, mu, nu)
                assert report.passed, (lam, mu, nu, report.violations)


def test_bounded_limits_refuse_before_any_class_sum(monkeypatch):
    import partalg.kronecker as kron
    semisimple = kron.first_semisimple_n
    degrees = []

    def counted(k):
        degrees.append(k)
        return semisimple(k)

    def no_class_sum(*args):
        raise AssertionError("class sum before the refusal")

    monkeypatch.setattr(kron, "first_semisimple_n", counted)
    monkeypatch.setattr(kron, "padded_kronecker", no_class_sum)
    with pytest.raises(ResourceLimitError):
        stable_kronecker((2, 1), (2, 1), (2, 1), max_n=10)   # n0 = 11
    with pytest.raises(ResourceLimitError):
        check_monotone((2,), (2,), (2,), max_n=8)            # n0 + 2 = 9
    with pytest.raises(ResourceLimitError):
        check_monotone((1,), (1,), (1,), 12, max_n=10)
    assert degrees == [12, 8, 4]               # n0 computed once per call
    monkeypatch.setattr(kron, "padded_kronecker", padded_kronecker)
    assert stable_kronecker((2, 1), (2, 1), (2, 1), max_n=11) == (9, 11)
    assert check_monotone((2,), (2,), (2,), max_n=9).passed
    assert degrees == [12, 8, 4, 12, 8]
