"""One path walk, two forms: the text the CLI prints is built by the same
walk as the tuples the library returns, and equals format_paths of them."""

import contextlib
import hashlib
import io
import json

import pytest

import partalg
import partalg.branching as branching
import partalg.cli as cli
import partalg.modules as modules
from partalg.branching import (PATH_TEXT, Vertex, enumerate_paths,
                               format_paths, vertices_at_level, walk_paths)
from partalg.modules import permissible_paths, permissible_walk


def vertices(kmax):
    return [v for k in range(kmax + 1) for v in vertices_at_level(k)]


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_text_walk_equals_formatted_paths():
    for v in vertices(11):
        texts = walk_paths(v, PATH_TEXT)
        assert texts == format_paths(enumerate_paths(v)), v


def test_permissible_text_walk_equals_formatted_permissible_paths():
    for v in vertices(11):
        for n in range(8):
            texts = permissible_walk(v, n, PATH_TEXT)
            assert texts == format_paths(permissible_paths(v, n)), (v, n)
    assert permissible_walk(Vertex((), 0), 0, PATH_TEXT) == ["[]"]
    # the simple of the empty shape vanishes at n = 0 on even levels >= 2
    assert permissible_walk(Vertex((), 2), 0, PATH_TEXT) == []


def test_walks_return_what_the_tuple_walks_returned():
    """Frozen from the memoised tuple walks that each built their own path
    lists: the results, their order and their types are unchanged."""
    full = [(tuple(v), enumerate_paths(v)) for v in vertices(11)]
    perm = [(tuple(v), n, permissible_paths(v, n))
            for v in vertices(11) for n in range(8)]
    assert (len(full), sum(len(p) for _, p in full)) == (90, 3828)
    assert (len(perm), sum(len(p) for *_, p in perm)) == (720, 26415)
    assert digest(full) == (
        "6539fc43ce78d2fdb9508561ad83e8a7daf1bc1466279c7ffcdcc3f11c958ff9")
    assert digest(perm) == (
        "e8ec6be42a1c4610649ac5eea00d773d5b348a2fc345c25da5dc34d49dc8105a")


@pytest.mark.parametrize("argv", [
    ["paths", "--k", "9", "--lambda", "2,1"],
    ["paths", "--k", "0", "--lambda", ""],
    ["permissible", "--k", "10", "--n", "3", "--lambda", "2"],
    ["permissible", "--k", "2", "--n", "0", "--lambda", ""],
])
def test_path_verbs_print_without_the_tuple_walks(argv, monkeypatch):
    want = run(argv)
    assert want[0] == 0 and json.loads(want[1])["paths"] is not None

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI built path tuples")

    for mod in (partalg, branching, modules, cli):
        for name in ("format_paths", "enumerate_paths", "permissible_paths"):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    assert run(argv) == want
