"""Production routes against the independent routes of oracles.py, and the
import rule that keeps those routes out of production."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import partalg
from partalg.branching import enumerate_paths, vertices_at_level
from partalg.diagrams import compose, enumerate_diagrams
from partalg.errors import ResourceLimitError
from partalg.kronecker import (first_padded_n, kronecker_coefficient,
                               mn_character, pad, stable_kronecker)
from partalg.modules import blocks_at_level, permissible_paths
from partalg.oracles import (brute_force_linkage_classes, first_semisimple_n,
                             is_permissible, is_semisimple,
                             kronecker_by_class_sum, linkage_classes,
                             mn_character_by_strips, partitions_by_recursion,
                             residue_vector)
from partalg.partitions import partitions_of, partitions_up_to

PACKAGE = Path(partalg.__file__).parent


def test_permissible_walk_equals_the_path_filter():
    pairs = 0
    for k in range(11):
        for v in vertices_at_level(k):
            for n in range(9):
                want = [t for t in enumerate_paths(v) if is_permissible(t, n)]
                assert permissible_paths(v, n) == want, (v, n)
                pairs += 1
    assert pairs == 639


def per_path_closure(k, n):
    """Linkage classes as the union-find closure over every path's residue
    vector, each path enumerated and its vector computed on its own."""
    verts = vertices_at_level(k)
    parent = list(range(len(verts)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    owner = {}
    for i, v in enumerate(verts):
        for t in enumerate_paths(v):
            parent[find(owner.setdefault(residue_vector(t, n), i))] = find(i)
    groups = {}
    for i, v in enumerate(verts):
        groups.setdefault(find(i), []).append(v)
    return list(groups.values())


def as_classes(classes):
    return {frozenset(c) for c in classes}


def test_propagated_linkage_equals_the_per_path_closure_and_the_chains():
    for k in range(11):
        for n in range(9):
            got = as_classes(brute_force_linkage_classes(k, n))
            assert got == as_classes(per_path_closure(k, n)), (k, n)
            assert got == as_classes(blocks_at_level(k, n)), (k, n)


@pytest.mark.parametrize("k, n", [(12, 3), (14, 3), (14, 5)])
def test_propagated_linkage_equals_the_chains_high_up(k, n):
    assert as_classes(brute_force_linkage_classes(k, n)) == \
        as_classes(blocks_at_level(k, n))


def test_linkage_refuses_a_level_above_the_bound():
    with pytest.raises(ResourceLimitError):
        linkage_classes(15, 3, verify=True)
    with pytest.raises(ResourceLimitError):
        brute_force_linkage_classes(20, 3, max_level=5)


def test_partitions_equal_the_recursion():
    for n in range(31):
        assert list(partitions_of(n)) == list(partitions_by_recursion(n)), n


def test_characters_equal_the_strip_removal_oracle():
    pairs = 0
    for n in range(10):
        for shape in partitions_of(n):
            for cycle in partitions_of(n):
                assert mn_character(shape, cycle) == \
                    mn_character_by_strips(shape, cycle), (shape, cycle)
                pairs += 1
    assert pairs == 1819


def test_class_sums_equal_the_full_oracle_sum():
    triples = 0
    for n in range(7):
        shapes = list(partitions_of(n))
        for a in shapes:
            for b in shapes:
                for c in shapes:
                    assert kronecker_coefficient(a, b, c) == \
                        kronecker_by_class_sum(a, b, c), (a, b, c)
                    triples += 1
    assert triples == 1836


def test_padded_class_sums_equal_the_full_oracle_sum():
    # reduced shapes of size <= 6 pad validly at every n >= 12
    rng = random.Random(6)
    reduced = list(partitions_up_to(6))
    for n in range(12, 21):
        for _ in range(2):
            triple = [pad(rng.choice(reduced), n).padded for _ in range(3)]
            assert kronecker_coefficient(*triple) == \
                kronecker_by_class_sum(*triple), triple


def exact_rank(rows):
    """Rank of an integer matrix by Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def trace_form_rank(k, n):
    """Rank of the trace form (a, b) -> tr(L_{ab}) of the level-k diagram
    algebra at z = n, L_x being multiplication by x on the diagram basis.
    A product of diagrams is z^loops times a diagram, so tr(L_c) of a
    diagram c sums n^loops over the basis diagrams d with c d = z^loops d."""
    basis = enumerate_diagrams(k)
    trace = {}
    for c in basis:
        trace[c] = 0
        for d in basis:
            e, loops = compose(c, d)
            if e == d:
                trace[c] += n ** loops
    gram = []
    for a in basis:
        row = []
        for b in basis:
            c, loops = compose(a, b)
            row.append(n ** loops * trace[c])
        gram.append(row)
    return exact_rank(gram), len(basis)


def test_exact_rank():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 1], [1, 0]]) == 2
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[2, 1, 1], [4, 2, 3], [6, 3, 4]]) == 2


def test_semisimple_iff_the_trace_form_is_nondegenerate():
    # over the rationals an algebra is semisimple exactly when the trace
    # form of its regular representation is nondegenerate
    for k in range(1, 6):
        for n in range(6):
            rank, dim = trace_form_rank(k, n)
            assert (rank == dim) == is_semisimple(k, n), (k, n, rank, dim)


def test_odd_levels_are_semisimple_at_zero_and_from_one_below():
    for k in range(1, 16, 2):
        for n in range(k + 2):
            assert is_semisimple(k, n) == (n == 0 or n >= k - 1), (k, n)
        assert first_semisimple_n(k) == 0


def test_stable_level_equals_the_semisimplicity_scan():
    shapes = list(partitions_up_to(3))
    for lam in shapes:
        for mu in shapes:
            for nu in shapes:
                scan = first_semisimple_n(2 * (sum(lam) + sum(mu)))
                want = max(scan, first_padded_n(lam, mu, nu))
                assert stable_kronecker(lam, mu, nu)[1] == want, (lam, mu, nu)
    assert len(shapes) ** 3 == 343


def _imported_modules(path):
    """The sibling partalg modules a source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(a.name for a in node.names)
            elif node.module and node.module.startswith("partalg."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("partalg."))
    return out


def _names_reached(tree, start):
    """Every name the top-level definition start uses, following the
    module's own top-level definitions it names."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    seen, todo, names = set(), [start], set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for node in ast.walk(defs[name]):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                    if node.id in defs:
                        todo.append(node.id)
    return names


def test_only_cli_and_init_import_the_oracles():
    imports = {p.stem: _imported_modules(p) for p in PACKAGE.glob("*.py")}
    assert "oracles" in imports and "selftest" not in imports
    assert "residues" not in imports
    assert {m for m, deps in imports.items() if "oracles" in deps} == {
        "cli", "__init__"}
    # the Kronecker layer stands on partitions alone
    assert imports["kronecker"] == {"errors", "partitions"}
    # the alcove layer reads positions off shapes; the staircase coordinate
    # model is an oracle, defined in oracles.py and re-exported only by the
    # package root
    assert imports["geometry"] == {"branching", "partitions"}
    model = {"EmbeddedPoint", "embed", "classify", "reflect", "embedded_path"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in model or path.stem == "oracles", (
                    path.stem, node.name)
            elif isinstance(node, ast.ImportFrom) and model & {
                    a.name for a in node.names}:
                assert (path.stem, node.module) == ("__init__", "oracles"), (
                    path.stem, node.module)
    # the residue closure stays independent of the block chains it checks
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    chain_names = {a.asname or a.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module in ("modules", "geometry")
                   for a in node.names}
    closure = _names_reached(tree, "brute_force_linkage_classes")
    assert chain_names and "edge_content" in closure
    assert not closure & chain_names
