"""Production routes against the independent routes of oracles.py, and the
import rule that keeps those routes out of production."""

import ast
from pathlib import Path

import partalg
from partalg.branching import enumerate_paths, vertices_at_level
from partalg.modules import permissible_paths
from partalg.oracles import is_permissible

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
