"""Production routes against the independent routes of oracles.py, and the
import rule that keeps those routes out of production."""

import ast
import doctest
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest

import partalg
from partalg.branching import enumerate_paths, vertices_at_level
from partalg.diagrams import compose, enumerate_diagrams
from partalg.kronecker import (first_padded_n, kronecker_coefficient,
                               mn_character, pad, stable_kronecker)
from partalg.modules import blocks_at_level, permissible_paths
from partalg.oracles import (brute_force_linkage_classes, first_semisimple_n,
                             is_permissible, is_semisimple,
                             kronecker_by_class_sum,
                             mn_character_by_strips, partitions_by_recursion,
                             residue_vector)
from partalg.partitions import partitions_of, partitions_up_to

PACKAGE = Path(partalg.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = README.parent / "bench"


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
            triple = [pad(rng.choice(reduced), n) for _ in range(3)]
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


def _imported_modules(nodes):
    """The sibling partalg modules the import statements among nodes name."""
    out = set()
    for node in nodes:
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


def _module_level(tree):
    """The nodes of tree that run on import: all but function bodies."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


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


def test_no_module_imports_the_oracles_at_module_level():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    imports = {m: _imported_modules(ast.walk(t)) for m, t in trees.items()}
    assert "oracles" in imports and "selftest" not in imports
    assert "residues" not in imports
    for m, tree in trees.items():
        assert "oracles" not in _imported_modules(_module_level(tree)), m
    # only the blocks --verify and selftest handlers load them, on demand
    assert {m for m, deps in imports.items() if "oracles" in deps} == {"cli"}
    assert {f.name for f in trees["cli"].body
            if isinstance(f, ast.FunctionDef)
            and "oracles" in _imported_modules(ast.walk(f))} == {
        "cmd_blocks", "cmd_selftest"}
    # value records are collections.namedtuples: no module imports typing
    named = {a.name if isinstance(node, ast.Import) else node.module
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for a in node.names}
    assert not {m for m in named if m and m.split(".")[0] == "typing"}
    # the Kronecker layer stands on partitions alone
    assert imports["kronecker"] == {"partitions"}
    # bounds are checked where the user sets them, in the CLI, and in the
    # three level-bounded enumerations that library callers reach directly
    guarded = {(m, getattr(top, "name", None))
               for m, tree in trees.items() for top in tree.body
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and "guard" in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None))}
    assert {g for g in guarded if g[0] != "cli"} == {
        ("diagrams", "enumerate_diagrams"), ("branching", "enumerate_paths"),
        ("modules", "permissible_paths")}
    assert ("cli", "main") in guarded
    assert {m for m, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and "guard" in {a.name for a in node.names}} == {
        "cli", "diagrams", "branching", "modules"}
    # the alcove layer reads positions off shapes; the staircase coordinate
    # model is an oracle, defined in oracles.py and re-exported nowhere
    assert imports["geometry"] == {"branching", "partitions"}
    model = {"EmbeddedPoint", "embed", "classify", "reflect", "embedded_path"}
    for m, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in model or m == "oracles", (m, node.name)
            elif isinstance(node, ast.ImportFrom):
                assert not model & {a.name for a in node.names}, (
                    m, node.module)
    # the residue closure stays independent of the block chains it checks
    tree = trees["oracles"]
    chain_names = {a.asname or a.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module in ("modules", "geometry")
                   for a in node.names}
    closure = _names_reached(tree, "brute_force_linkage_classes")
    assert chain_names and "edge_content" in closure
    assert not closure & chain_names


def _reads(node, inside=(), names=True):
    """(name, enclosing definitions) for every Attribute, and unless names
    is false every Name, that node and its children read."""
    if names and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, inside
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, inside
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, inside, names)


def _tour():
    """The parsed examples of the README's library tour."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    return [ast.parse(example.source) for block in blocks
            for example in doctest.DocTestParser().get_examples(block)]


def test_every_export_has_a_caller():
    """A name stays in partalg.__all__ only if something reaches it: a
    module of the package other than __init__.py reads it outside its own
    definition (oracles.py and the name's home module count), or the
    README's library tour does.  A name the paper defines but no verb or
    oracle calls stays only with a tour line.  The rule cannot see a
    wrapper whose one caller sits in its home module (is_edge in
    check_path, format_diagram in Diagram.__str__, identity_diagram in
    AlgebraElement.one were such); those are inlined by review instead."""
    used = {name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
            for name, inside in _reads(ast.parse(p.read_text()))
            if name not in inside}
    toured = {name for example in _tour() for name, _ in _reads(example)}
    assert "parse_diagram" in toured
    assert sorted(set(partalg.__all__) - used - toured) == []


def test_every_public_method_has_a_caller():
    """The same rule for each public method, classmethod and property of an
    exported class: a module of the package other than __init__.py reads it
    as an attribute outside its own definition, or bench/*.py or the README's
    library tour does.  Namedtuple fields and slots are data, not methods."""
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")
             if p.name != "__init__.py"]
    trees += [ast.parse(p.read_text()) for p in BENCH.glob("*.py")]
    read = {name for tree in trees + _tour()
            for name, inside in _reads(tree, names=False)
            if name not in inside}
    classes = [cls for cls in map(vars(partalg).get, partalg.__all__)
               if isinstance(cls, type)]
    methods = [f"{cls.__name__}.{name}" for cls in classes
               for name, value in vars(cls).items()
               if not name.startswith("_")
               and isinstance(value, (FunctionType, classmethod,
                                      staticmethod, property))]
    assert "ZPoly.degree" in methods and "Diagram.dots" not in methods
    assert [m for m in methods if m.split(".")[1] not in read] == []


def loaded_at_start(module):
    """Whether importing the package and its CLI in a fresh interpreter
    loads module; -S keeps site hooks from importing it first."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, partalg, partalg.cli; "
            f"print({module!r} in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout in ("False\n", "True\n"), proc.stderr
    return proc.stdout == "True\n"


def test_the_cli_starts_without_dataclasses():
    # dataclasses would pull inspect, ast, dis and tokenize into every start
    assert not loaded_at_start("dataclasses")


def test_the_cli_starts_without_typing():
    # value records are collections.namedtuples; typing costs every start
    assert not loaded_at_start("typing")


def test_the_cli_starts_without_the_oracles():
    # only blocks --verify and selftest need them
    assert not loaded_at_start("partalg.oracles")
