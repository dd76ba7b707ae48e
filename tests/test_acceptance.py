"""Acceptance suite: ten go/no-go checks, one visible pass/fail line each.

Run as part of the normal test suite; the lines print unbuffered so a plain
`pytest tests/test_acceptance.py` shows the scoreboard even on success.
Timed criteria clear the relevant caches first so the bound is honest.
"""

import random
import time
from itertools import combinations

from partalg.branching import (Vertex, cell_dimension, enumerate_paths,
                               vertices_at_level)
from partalg.diagrams import AlgebraElement, enumerate_diagrams, parse_element
from partalg.kronecker import (_character, check_monotone, class_size,
                               kronecker_coefficient, mn_character,
                               padded_kronecker, stable_kronecker,
                               stable_level)
from partalg.modules import (decomposition_row, simple_dimension,
                             _simple_dimension)
from partalg.oracles import (brute_force_linkage_classes, content_vector,
                             geometric_residue_equivalent, is_permissible,
                             linkage_classes, residue_vector,
                             simple_dimension_by_paths,
                             simple_dimension_by_alternating_sum,
                             step_residues)
from partalg.partitions import partitions_of, partitions_up_to
from partalg.zpoly import ZPoly

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def scoreboard(capsys, number, name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_01_simple_dimensions(capsys):
    _simple_dimension.cache_clear()
    cell_dimension.cache_clear()
    start = time.perf_counter()
    d_empty = simple_dimension(Vertex((), 6), 2)
    d_one = simple_dimension(Vertex((1,), 6), 2)
    elapsed = time.perf_counter() - start
    ok = d_empty == 4 and d_one == 4 and elapsed < 1.0
    scoreboard(capsys, 1, "simple dimensions at level 6, n=2", ok,
               f"dims {d_empty},{d_one}; {elapsed:.3f}s")


def test_criterion_02_permissible_triple(capsys):
    s = ((), (), (1,), (), (1,), (), ())
    t = ((), (), (1,), (1,), (1,), (), ())
    u = ((), (), (1,), (1,), (2,), (2,), (3,))
    verdicts = (is_permissible(s, 2), is_permissible(t, 2),
                is_permissible(u, 2))
    ok = verdicts == (True, False, True)
    scoreboard(capsys, 2, "worked path triple classified", ok,
               f"got {verdicts}")


def test_criterion_03_contents_and_residues(capsys):
    t = ((), (), (1,), (1,), (1,), (), ())
    contents = tuple(str(c) for c in content_vector(t))
    residues = residue_vector(t, 2)
    ok = (contents == ("0", "0", "1", "z-1", "z", "z")
          and residues == (0, 0, 1, 1, 2, 2))
    scoreboard(capsys, 3, "worked content and residue vectors", ok,
               f"{','.join(contents)} | {residues}")


def test_criterion_04_kronecker_tables_and_stabilization(capsys):
    def square(a):
        return {c: g for c in partitions_of(sum(a))
                if (g := kronecker_coefficient(a, a, c))}

    tables_ok = (
        square((1, 1)) == {(2,): 1}
        and square((2, 1)) == {(3,): 1, (2, 1): 1, (1, 1, 1): 1}
        and square((3, 1)) == {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1})

    reduced = [(), (1,), (2,), (1, 1)]
    stable_ok = True
    for nu in reduced:
        g, n0 = stable_kronecker((1,), (1,), nu)
        flat_from_4 = all(padded_kronecker((1,), (1,), nu, n) == (g, True)
                          for n in range(4, max(8, n0 + 2) + 1))
        stable_ok = stable_ok and g == 1 and n0 <= 4 and flat_from_4
    vanish, _ = stable_kronecker((1,), (1,), (3,))
    ok = tables_ok and stable_ok and vanish == 0
    scoreboard(capsys, 4, "tensor-square tables and stabilization at n=4", ok)


def test_criterion_05_bell_identity(capsys):
    cell_dimension.cache_clear()
    start = time.perf_counter()
    sums = [sum(cell_dimension(v) ** 2 for v in vertices_at_level(k))
            for k in range(11)]
    elapsed = time.perf_counter() - start
    ok = sums == BELL and elapsed < 5.0
    scoreboard(capsys, 5, "sum of squared cell dimensions is Bell(k), k<=10",
               ok, f"{elapsed:.3f}s")


def test_criterion_06_triple_agreement(capsys):
    _simple_dimension.cache_clear()
    start = time.perf_counter()
    checked = 0
    ok = True
    for k in range(9):
        for v in vertices_at_level(k):
            for n in range(7):
                a = simple_dimension_by_paths(v, n)
                b = simple_dimension(v, n)
                c = simple_dimension_by_alternating_sum(v, n)
                checked += 1
                if not a == b == c:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    scoreboard(capsys, 6, "three simple-dimension routes agree, k<=8, n<=6",
               ok, f"{checked} instances; {elapsed:.3f}s")


def test_criterion_07_oracle_equivalences(capsys):
    ok = True
    pairs = paths = 0
    for k in range(7):
        level_paths = [t for v in vertices_at_level(k)
                       for t in enumerate_paths(v)]
        for n in range(5):
            vectors = {}
            for t in level_paths:
                paths += 1
                vectors[t] = residue_vector(t, n)
                if step_residues(t, n) != vectors[t]:
                    ok = False
            # pairs may end at different vertices; only the length must match
            for s, t in combinations(level_paths, 2):
                pairs += 1
                if geometric_residue_equivalent(s, t, n) != \
                        (vectors[s] == vectors[t]):
                    ok = False
    linkage_ok = True
    for k in range(8):
        for n in range(5):
            via_chains = sorted(sorted(c) for c in linkage_classes(k, n))
            brute = sorted(sorted(c) for c in brute_force_linkage_classes(k, n))
            if via_chains != brute:
                linkage_ok = False
    ok = ok and linkage_ok
    scoreboard(capsys, 7, "geometric oracles match residue definitions", ok,
               f"{paths} paths, {pairs} pairs")


def test_criterion_08_monotone_convergence(capsys):
    mn_character.cache_clear()
    _character.cache_clear()
    class_size.cache_clear()
    start = time.perf_counter()
    shapes = list(partitions_up_to(3))
    failures = []
    for lam in shapes:
        for mu in shapes:
            for nu in shapes:
                report = check_monotone(lam, mu, nu,
                                        stable_level(lam, mu, nu) + 2)
                if not report.passed:
                    failures.append((lam, mu, nu, report.violations))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    scoreboard(capsys, 8, "monotone convergence for all triples of size <=3",
               ok, f"{len(shapes)**3} triples; {elapsed:.3f}s")


def test_criterion_09_decomposition_bookkeeping(capsys):
    ok = True
    rows = 0
    for k in range(9):
        for n in range(7):
            for v in vertices_at_level(k):
                row = decomposition_row(v, n)
                total = sum(m * simple_dimension(w, n)
                            for w, m in row)
                rows += 1
                if total != cell_dimension(v):
                    ok = False
    special = decomposition_row(Vertex((), 2), 0)
    ok = ok and [(w.shape, m) for w, m in special] == [((1,), 1)]
    scoreboard(capsys, 9, "decomposition rows add up, k<=8, n<=6", ok,
               f"{rows} rows incl. n=0 replacement row")


def test_criterion_10_algebra_axioms(capsys):
    rng = random.Random(20259)
    pools = {k: enumerate_diagrams(k) for k in range(1, 7)}

    def element(level):
        terms = {}
        width = rng.randint(1, min(3, len(pools[level])))
        for d in rng.sample(pools[level], width):
            terms[d] = ZPoly([rng.randint(-2, 2), rng.randint(-1, 1)])
        return AlgebraElement(level, terms)

    ok = True
    for _ in range(1000):
        level = rng.randint(1, 6)
        a, b, c = element(level), element(level), element(level)
        if (a * b) * c != a * (b * c):
            ok = False
        if (a * b).star() != b.star() * a.star():
            ok = False
    e = parse_element("[[1],[1']]", 2)
    z = ZPoly((0, 1))
    ok = ok and e * e == e.scale(z)
    scoreboard(capsys, 10, "associativity, star, and the contraction relation",
               ok, "1000 random triples/pairs, dots<=3")
