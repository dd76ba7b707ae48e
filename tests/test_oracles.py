"""Production routes against the independent routes of oracles.py, and the
import rule that keeps those routes out of production."""

import ast
import random
from pathlib import Path

import pytest

import partalg
from partalg.branching import enumerate_paths, vertices_at_level
from partalg.errors import ResourceLimitError
from partalg.kronecker import kronecker_coefficient, mn_character, pad
from partalg.modules import blocks_at_level, permissible_paths
from partalg.oracles import (brute_force_linkage_classes, is_permissible,
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
    # the residue closure stays independent of the block chains it checks
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    chain_names = {a.asname or a.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module in ("modules", "geometry")
                   for a in node.names}
    closure = _names_reached(tree, "brute_force_linkage_classes")
    assert chain_names and "edge_content" in closure
    assert not closure & chain_names
