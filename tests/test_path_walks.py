"""One path walk, two forms: the text the CLI prints is built by the same
walk as the tuples the library returns, and equals format_path of each."""

import contextlib
import hashlib
import io
import json

import pytest

import partalg.branching as branching
import partalg.cli as cli
import partalg.modules as modules
from partalg.branching import (PATH_TEXT, Vertex, enumerate_paths,
                               format_path, vertices_at_level)
from partalg.modules import permissible_paths


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
        texts = enumerate_paths(v, form=PATH_TEXT)
        assert texts == [format_path(t) for t in enumerate_paths(v)], v


def test_permissible_text_walk_equals_formatted_permissible_paths():
    for v in vertices(11):
        for n in range(8):
            texts = permissible_paths(v, n, form=PATH_TEXT)
            want = [format_path(t) for t in permissible_paths(v, n)]
            assert texts == want, (v, n)
    assert permissible_paths(Vertex((), 0), 0, form=PATH_TEXT) == ["[]"]
    # the simple of the empty shape vanishes at n = 0 on even levels >= 2
    assert permissible_paths(Vertex((), 2), 0, form=PATH_TEXT) == []
    # None lifts the level bound, as the CLI passes it
    deep = permissible_paths(Vertex((1,), 15), 3, None, PATH_TEXT)
    assert deep == [format_path(t)
                    for t in permissible_paths(Vertex((1,), 15), 3, 15)]


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

    walk, forms = branching.walk_paths, []

    def spy(v, form, rule=None):
        forms.append(form)
        return walk(v, form, rule)

    for mod in (branching, modules):
        monkeypatch.setattr(mod, "walk_paths", spy)
    assert run(argv) == want
    assert forms and all(form is PATH_TEXT for form in forms)
