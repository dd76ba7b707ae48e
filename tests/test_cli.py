"""End-to-end command-line checks: frozen outputs, exit codes, determinism."""

import argparse
import json

import pytest

from partalg.cli import VERBS, build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simple_dim_exact_bytes(capsys):
    rc, out, err = run(capsys, "simple-dim", "--k", "6", "--n", "2",
                       "--lambda", "")
    assert rc == 0
    assert out == '{"dim":4}\n'
    assert err == ""


def test_blocks_frozen(capsys):
    rc, out, _ = run(capsys, "blocks", "--k", "6", "--n", "2")
    assert rc == 0
    assert json.loads(out) == {
        "k": 6, "n": 2, "verified": False,
        "classes": [["[]", "3"], ["1", "2"], ["1,1"], ["2,1"], ["1,1,1"]]}
    rc, out, _ = run(capsys, "blocks", "--k", "4", "--n", "2", "--verify")
    assert rc == 0
    assert json.loads(out) == {
        "k": 4, "n": 2, "verified": True,
        "classes": [["[]"], ["1", "2"], ["1,1"]]}


def test_diagrams_frozen(capsys):
    rc, out, _ = run(capsys, "diagrams", "--k", "3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["diagrams"] == [
        "[[1],[2,1',2']]", "[[1],[2,2'],[1']]", "[[1,2,1',2']]",
        "[[1,2,2'],[1']]", "[[1,1'],[2,2']]"]


def test_mult(capsys):
    rc, out, _ = run(capsys, "mult", "--k", "4",
                     "--a", "[[1,2],[1',2']]", "--b", "[[1,2],[1',2']]")
    assert rc == 0
    assert json.loads(out)["product"] == "z*[[1,2],[1',2']]"


def test_dims_table(capsys):
    rc, out, _ = run(capsys, "dims", "--k", "4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["cells"] == [
        {"shape": "[]", "dim": 2}, {"shape": "1", "dim": 3},
        {"shape": "2", "dim": 1}, {"shape": "1,1", "dim": 1}]
    assert payload["sum_of_squares"] == 15


def test_decomp_row(capsys):
    rc, out, _ = run(capsys, "decomp", "--k", "6", "--n", "2",
                     "--lambda", "")
    assert rc == 0
    payload = json.loads(out)
    assert payload["factors"] == [{"shape": "[]", "mult": 1},
                                  {"shape": "3", "mult": 1}]
    assert payload["dims"] == {"cell": 5, "simple": 4, "radical": 1}


def test_restrict(capsys):
    rc, out, _ = run(capsys, "restrict", "--k", "6", "--n", "2",
                     "--lambda", "1")
    assert rc == 0
    assert json.loads(out)["restriction"] == [{"shape": "[]", "level": 5}]
    rc, out, _ = run(capsys, "restrict", "--k", "6", "--n", "2",
                     "--lambda", "1", "--module", "cell")
    assert json.loads(out)["restriction"] == [
        {"shape": "[]", "level": 5}, {"shape": "1", "level": 5}]


def test_restrict_wall_vertex_is_domain_error(capsys):
    rc, out, err = run(capsys, "restrict", "--k", "6", "--n", "2",
                       "--lambda", "2,1")
    assert rc == 1
    assert out == ""
    assert "restrict_cell" in err


def test_paths_frozen(capsys):
    rc, out, _ = run(capsys, "paths", "--k", "4", "--lambda", "2")
    assert rc == 0
    assert json.loads(out)["paths"] == ["[],[],[1],[1],[2]"]


def test_permissible_frozen(capsys):
    rc, out, _ = run(capsys, "permissible", "--k", "6", "--n", "2",
                     "--lambda", "")
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["paths"] == [
        "[],[],[],[],[],[],[]", "[],[],[1],[],[],[],[]",
        "[],[],[],[],[1],[],[]", "[],[],[1],[],[1],[],[]"]


def test_kronecker_single(capsys):
    rc, out, _ = run(capsys, "kronecker", "--lambda", "1", "--mu", "1",
                     "--nu", "1", "--n", "3")
    assert rc == 0
    assert json.loads(out) == {"lambda": "1", "mu": "1", "nu": "1",
                               "n": 3, "g": 1, "valid": True}


def test_kronecker_csv(capsys):
    rc, out, _ = run(capsys, "kronecker", "--lambda", "1", "--mu", "1",
                     "--nu", "1", "--nmax", "5", "--format", "csv")
    assert rc == 0
    assert out == ("lambda,mu,nu,n,g,valid\n"
                   "1,1,1,0,0,False\n"
                   "1,1,1,1,0,False\n"
                   "1,1,1,2,0,True\n"
                   "1,1,1,3,1,True\n"
                   "1,1,1,4,1,True\n"
                   "1,1,1,5,1,True\n")


def test_stable(capsys):
    rc, out, _ = run(capsys, "stable", "--lambda", "1", "--mu", "1",
                     "--nu", "1")
    assert rc == 0
    assert json.loads(out) == {"lambda": "1", "mu": "1", "nu": "1",
                               "stable": 1, "stable_at": 3}


def test_monotone(capsys):
    rc, out, _ = run(capsys, "monotone", "--lambda", "1", "--mu", "1",
                     "--nu", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["stable"] == 1
    assert payload["stable_at"] == 3
    assert payload["first_flat"] == 3
    assert payload["violations"] == []
    assert payload["sequence"] == [[0, 0, False], [1, 0, False],
                                   [2, 0, True], [3, 1, True],
                                   [4, 1, True], [5, 1, True]]


def test_graph_dot(capsys):
    rc, out, _ = run(capsys, "graph-dot", "--k", "6", "--n", "2")
    assert rc == 0
    assert out.startswith("// branching graph, levels 0..6, parameter n=2\n"
                          "digraph branching {")
    assert out.rstrip().endswith("}")
    assert out.count("label=") == 21
    assert out.count(" -> ") == 29
    assert 'v5_1_1 [label="1,1@5 wall 2", shape=box' in out
    # walls: 1@3, 1,1@4, 1@5, 1,1@5, and 1,1 / 2,1 / 1,1,1 at the top level
    assert out.count("shape=box") == 7


def test_selftest_verb(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("ok ") for line in lines)


def test_resource_refusals(capsys):
    rc, out, err = run(capsys, "diagrams", "--k", "20")
    assert rc == 3
    assert out == ""
    assert "refused" in err
    rc, _, _ = run(capsys, "paths", "--k", "16", "--lambda", "")
    assert rc == 3
    rc, _, _ = run(capsys, "kronecker", "--lambda", "1", "--mu", "1",
                   "--nu", "1", "--n", "12")
    assert rc == 3
    # raising the bound explicitly lifts the refusal
    rc, out, _ = run(capsys, "kronecker", "--lambda", "1", "--mu", "1",
                     "--nu", "1", "--n", "12", "--max-n", "12")
    assert rc == 0
    assert json.loads(out)["g"] == 1
    # stable refuses once n0 = 11 exceeds the default --max-n 10
    rc, out, err = run(capsys, "stable", "--lambda", "2,1", "--mu", "2,1",
                       "--nu", "2,1")
    assert rc == 3
    assert out == ""
    assert "refused" in err
    rc, out, _ = run(capsys, "stable", "--lambda", "2,1", "--mu", "2,1",
                     "--nu", "2,1", "--max-n", "11")
    assert rc == 0
    assert '"stable":9' in out
    # monotone refuses once its default range end n0 + 2 = 9 exceeds
    # --max-n, also where n0 = 7 itself does not
    for max_n in ("3", "8"):
        rc, out, _ = run(capsys, "monotone", "--lambda", "2", "--mu", "2",
                         "--nu", "2", "--max-n", max_n)
        assert rc == 3
        assert out == ""


def test_domain_error_exit_code(capsys):
    rc, _, err = run(capsys, "mult", "--k", "2",
                     "--a", "[[1,2],[1',2']]", "--b", "[[1,2],[1',2']]")
    assert rc == 1
    assert "error:" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simple-dim", "--k", "6"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-verb"])
    assert info.value.code == 2
    # each verb accepts only the flags it reads
    for argv in (["dims", "--k", "4", "--format", "csv"],
                 ["diagrams", "--k", "3", "--verify"],
                 ["graph-dot", "--k", "4", "--n", "2", "--format", "dot"],
                 ["selftest", "--max-k", "3"],
                 ["mult", "--k", "4", "--a", "[[1,2],[1',2']]",
                  "--b", "[[1,2],[1',2']]", "--max-n", "1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_bad_partition_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simple-dim", "--k", "6", "--n", "2", "--lambda", "1,2"])
    assert info.value.code == 2


def test_determinism(capsys):
    first = run(capsys, "decomp", "--k", "6", "--n", "2")
    second = run(capsys, "decomp", "--k", "6", "--n", "2")
    assert first == second
    first = run(capsys, "graph-dot", "--k", "5", "--n", "3")
    second = run(capsys, "graph-dot", "--k", "5", "--n", "3")
    assert first == second


def _verb_parsers(parser):
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _option_strings(parser):
    return [s for a in parser._actions for s in a.option_strings
            if s not in ("-h", "--help")]


def test_parser_is_the_verb_table():
    parsers = _verb_parsers(build_parser())
    assert list(parsers) == list(VERBS)
    for verb, (_, flags) in VERBS.items():
        expected = [f.rstrip("?") for f in flags]
        assert _option_strings(parsers[verb]) == expected
        # a request builds its own verb's subparser only, with the same flags
        [(name, alone)] = _verb_parsers(build_parser(verb)).items()
        assert name == verb
        assert _option_strings(alone) == expected
    assert sum(len(flags) for _, flags in VERBS.values()) == 48


def test_top_level_help_lists_every_verb(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    usage = capsys.readouterr().out
    assert "{" + ",".join(VERBS) + "}" in usage
