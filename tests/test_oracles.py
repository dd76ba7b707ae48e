"""Production routes against the independent routes of oracles.py, and the
import rule that keeps those routes out of production."""

import ast
import random
from pathlib import Path

import partalg
from partalg.branching import enumerate_paths, vertices_at_level
from partalg.kronecker import kronecker_coefficient, mn_character, pad
from partalg.modules import permissible_paths
from partalg.oracles import (is_permissible, kronecker_by_class_sum,
                             mn_character_by_strips, partitions_by_recursion)
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


def test_only_cli_and_init_import_the_oracles():
    imports = {p.stem: _imported_modules(p) for p in PACKAGE.glob("*.py")}
    assert "oracles" in imports and "selftest" not in imports
    assert {m for m, deps in imports.items() if "oracles" in deps} == {
        "cli", "__init__"}
    assert not imports["residues"] & {"modules", "oracles"}
