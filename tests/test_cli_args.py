"""The CLI's two argument routes: the plain form read straight from the verb
table, and argparse for everything else (help, usage errors)."""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import partalg.cli as cli
import partalg.oracles as oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def run(argv):
    """(exit code, stdout, stderr) of cli.main, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_through_argparse(argv):
    """run(argv) with the plain route switched off, as before it existed."""
    plain = cli._plain_args
    cli._plain_args = lambda verb, argv: None
    try:
        return run(argv)
    finally:
        cli._plain_args = plain


def test_plain_args_equal_argparse_on_every_workload_request():
    for name in workloads.WORKLOADS:
        for seed in range(6):
            for req in workloads.generate(name, seed):
                verb, *rest = req.argv
                got = cli._plain_args(verb, rest)
                assert got is not None, req.argv
                want = cli.build_parser(verb).parse_args(list(req.argv))
                assert vars(got) == vars(want), req.argv


FLAG_TOKENS = sorted({flag.rstrip("?") for flag in cli.FLAGS})
VALUES = st.sampled_from(["0", "1", "2", "3", "-1", "-0", "", "1,1", "2,1",
                          "x", "json", "csv", "cell", "simple", "[[1,1']]",
                          "[[1],[1']]", "z*[[1,1']]"])
JUNK = st.sampled_from(["-h", "--help", "--", "-k", "--nope", "junk",
                        "selftest", "--k=2", "--lambda=1", "--format=csv",
                        "--ver", "--la", "--max", "--mod", "--form", "--n?"])
TOKENS = st.one_of(st.sampled_from(FLAG_TOKENS), JUNK, VALUES)


def good_values(flag):
    """Values the flag accepts, small enough to answer at once."""
    spec = cli.FLAGS[flag]
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is int:
        return st.sampled_from(["0", "1", "2", "3"])
    if "type" in spec:
        return st.sampled_from(["", "1", "2", "1,1"])
    return st.sampled_from(["[[1,1']]", "[[1],[1']]", "z*[[1,1']]"])


@st.composite
def argvs(draw):
    """Mostly a verb's own flags with good values; now and then a flag left
    out or repeated, a bad value, junk tokens slipped in, or no verb."""
    verb = draw(st.sampled_from([*cli.VERBS, "nope"]))
    own = cli.VERBS.get(verb, (None, ()))[1]
    flags = draw(st.permutations(own))
    if own and draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(own)))
    chunks = []
    for flag in flags:
        if not draw(st.integers(0, 7)):
            continue
        name = flag.rstrip("?")
        if name == "--verify":
            chunks.append([name])
        else:
            value = draw(good_values(flag) if draw(st.integers(0, 5))
                         else TOKENS)
            chunks.append([name, value])
    if not draw(st.integers(0, 2)):
        for extra in draw(st.lists(st.lists(TOKENS, min_size=1, max_size=2),
                                   min_size=1, max_size=2)):
            chunks.insert(draw(st.integers(0, len(chunks))), extra)
    argv = [token for chunk in chunks for token in chunk]
    return argv if draw(st.integers(0, 9)) == 0 else [verb] + argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_main_matches_the_argparse_route_on_any_argv(argv):
    selftest = oracles.run_selftest
    oracles.run_selftest = lambda: []   # its checks are not what is compared
    try:
        assert run(argv) == run_through_argparse(argv)
    finally:
        oracles.run_selftest = selftest


def count_parsers(monkeypatch):
    calls = []
    build = cli.build_parser

    def counting(verb=None):
        calls.append(verb)
        return build(verb)

    monkeypatch.setattr(cli, "build_parser", counting)
    return calls


def test_a_plain_request_builds_no_parser(monkeypatch):
    calls = count_parsers(monkeypatch)
    assert run(["dims", "--k", "4"])[0] == 0
    assert run(["blocks", "--k", "4", "--n", "2", "--verify"])[0] == 0
    assert calls == []


def test_usage_errors_build_the_verbs_parser(monkeypatch):
    calls = count_parsers(monkeypatch)
    for argv in (["dims", "--k", "4", "--format", "csv"],
                 ["dims", "--k=4"], ["dims", "--k", "4", "--k", "5"],
                 ["dims", "--k", "-1"], ["dims", "--k", "x"],
                 ["restrict", "--k", "2", "--n", "1", "--lambda", "1",
                  "--module", "json"],
                 ["mult", "--k", "2", "--a", "-h", "--b", "[[1,1']]"],
                 ["kronecker", "--lambda", "1", "--mu", "1", "--nu", "1",
                  "--n", "3", "--nmax", "4"]):
        calls.clear()
        code, out, err = run(argv)
        assert calls == [argv[0]]
        assert (code, out, err) == run_through_argparse(argv)
    code, _, err = run(["dims", "--k", "4", "--format", "csv"])
    assert code == 2
    assert err.startswith("usage: partalg")
    assert err.endswith("unrecognized arguments: --format csv\n")


def test_every_max_k_refusal_names_the_flag():
    verbs = [verb for verb, (_, flags) in cli.VERBS.items()
             if "--max-k" in flags]
    assert verbs == ["diagrams", "paths", "blocks", "permissible",
                     "graph-dot"]
    extra = {"paths": ["--lambda", "1"], "blocks": ["--n", "2"],
             "permissible": ["--n", "2", "--lambda", "1"],
             "graph-dot": ["--n", "2"]}
    for verb in verbs:
        code, out, err = run([verb, "--k", "15", *extra.get(verb, [])])
        assert (code, out) == (3, ""), verb
        assert err == ("refused: level 15 exceeds --max-k 14; "
                       "raise the bound explicitly\n"), verb
    # raising the flag lifts the refusal, the library defaults included
    for argv in (["paths", "--k", "15", "--lambda", "7"],
                 ["blocks", "--k", "15", "--n", "3", "--verify"]):
        assert run(argv + ["--max-k", "15"])[0] == 0, argv


def test_every_max_n_refusal_names_the_flag():
    assert [verb for verb, (_, flags) in cli.VERBS.items()
            if "--max-n" in flags] == ["kronecker", "stable", "monotone"]
    one = ["--lambda", "1", "--mu", "1", "--nu", "1"]
    two = ["--lambda", "2", "--mu", "2", "--nu", "2"]
    two_one = ["--lambda", "2,1", "--mu", "2,1", "--nu", "2,1"]
    cases = [
        (["kronecker", *one, "--n", "12"], "n 12 exceeds --max-n 10"),
        (["kronecker", *one, "--nmax", "11"], "n 11 exceeds --max-n 10"),
        (["stable", *two_one], "stable level n0 11 exceeds --max-n 10"),
        (["monotone", *two, "--max-n", "8"], "n_max 9 exceeds --max-n 8"),
    ]
    for argv, what in cases:
        assert run(argv) == (
            3, "", f"refused: {what}; raise the bound explicitly\n"), argv


def test_max_n_refusals_come_before_any_class_sum(monkeypatch):
    import partalg.kronecker as kron

    def no_class_sum(*args):
        raise AssertionError("class sum before the refusal")

    monkeypatch.setattr(kron, "padded_kronecker", no_class_sum)
    for argv in (
            ["stable", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1"],  # 11
            ["monotone", "--lambda", "2", "--mu", "2", "--nu", "2",
             "--max-n", "8"],                                 # n0 + 2 = 9
            ["monotone", "--lambda", "1", "--mu", "1", "--nu", "1",
             "--nmax", "12"],
            ["stable", "--lambda", "20", "--mu", "20", "--nu", "20"]):  # 79
        code, out, err = run(argv)
        assert (code, out) == (3, ""), argv
        assert "exceeds --max-n" in err, argv
    monkeypatch.undo()
    code, out, _ = run(["stable", "--lambda", "2,1", "--mu", "2,1",
                        "--nu", "2,1", "--max-n", "11"])
    assert code == 0
    assert (json.loads(out)["stable"], json.loads(out)["stable_at"]) == (9, 11)
    code, out, _ = run(["monotone", "--lambda", "2", "--mu", "2",
                        "--nu", "2", "--max-n", "9"])
    assert code == 0 and json.loads(out)["passed"]


def test_blocks_prints_the_classes_it_verifies():
    for k in range(9):
        for n in range(5):
            argv = ["blocks", "--k", str(k), "--n", str(n)]
            code, out, _ = run(argv)
            code_v, out_v, _ = run(argv + ["--verify"])
            assert code == code_v == 0, (k, n)
            assert json.loads(out)["classes"] == \
                json.loads(out_v)["classes"], (k, n)


def test_graph_dot_refuses_a_negative_level():
    assert run(["graph-dot", "--k", "-1", "--n", "0"]) == (
        1, "", "error: level must be nonnegative\n")


def test_restrict_refuses_a_negative_n_for_either_module():
    for module in ("simple", "cell"):
        assert run(["restrict", "--k", "4", "--n", "-5", "--lambda", "1",
                    "--module", module]) == (
            1, "", "error: parameter n must be a nonnegative integer\n")


def test_mult_reports_malformed_diagrams_in_diagram_terms():
    code, out, err = run(["mult", "--k", "2", "--a", "[[1,1']]+[[1],[1']]",
                          "--b", "[[1,1']]"])
    assert (code, out) == (1, "")
    assert err == "error: malformed diagram \"[[1,1']]+[[1],[1']]\"\n"
    assert run(["mult", "--k", "2", "--a", "[[1,3']]", "--b", "[[1,1']]"]) == (
        1, "", "error: point 3' out of range for 1 dots\n")
    for a in ("[[1,-1]]", "[[+1,1_0']]", "[[\u0661,1']]", "[[1'',1]]"):
        assert run(["mult", "--k", "2", "--a", a, "--b", "[[1,1']]"]) == (
            1, "", f"error: malformed diagram {a!r}\n")


def test_mult_refuses_an_empty_term():
    a = "[[1,1']] +  + [[1,1']]"
    assert run(["mult", "--k", "2", "--a", a, "--b", "[[1,1']]"]) == (
        1, "", f"error: malformed element {a!r}: empty term\n")


# (level, operand, stderr) of malformed `mult` operands, as the parser
# worded them before products and parsing moved to half diagrams
MALFORMED_OPERANDS = [
    ("2", "[[1,-1]]", "error: malformed diagram '[[1,-1]]'\n"),
    ("2", "[[1,1'']]", "error: malformed diagram \"[[1,1'']]\"\n"),
    ("2", "[[١,1']]", "error: malformed diagram \"[[١,1']]\"\n"),
    ("2", "[[1,']]", "error: malformed diagram \"[[1,']]\"\n"),
    ("2", "[[1,3']]", "error: point 3' out of range for 1 dots\n"),
    ("2", "[[0,1']]", "error: point 0 out of range for 1 dots\n"),
    ("2", "[[1,0']]", "error: point 0 out of range for 1 dots\n"),
    ("4", "[[5,1'],[1,2,2']]", "error: point 5 out of range for 2 dots\n"),
    ("0", "[[1]]", "error: point 1 out of range for 0 dots\n"),
    ("2", "[[1,1,1']]", "error: point 1 repeated\n"),
    ("4", "[[1,2'],[2,1'],[1]]", "error: point 1 repeated\n"),
    ("2", "[[1]]", "error: blocks do not cover all points\n"),
    ("2", "[]", "error: blocks do not cover all points\n"),
    ("2", "[[]]", "error: malformed diagram '[[]]'\n"),
    ("1", "[[1],[1']]", "error: diagram [[1],[1']] not in the odd level 1\n"),
    ("3", "0*[[1],[2],[1'],[2']]",
     "error: diagram [[1],[2],[1'],[2']] not in the odd level 3\n"),
    # every term is read before odd-level membership is checked
    ("3", "[[1],[2],[1'],[2']] + [[1,2,1',2'",
     "error: malformed diagram \"[[1,2,1',2'\"\n"),
    ("2", "[[1,1']]+[[1],[1']]",
     "error: malformed diagram \"[[1,1']]+[[1],[1']]\"\n"),
    ("4", "(3\n)*[[1,1'],[2,2']]", "error: malformed term '3\\n'\n"),
    ("2", "x*[[1,1']]", "error: malformed term 'x'\n"),
    ("2", "(z+)*[[1,1']]", "error: malformed polynomial 'z+'\n"),
]


@pytest.mark.parametrize("k, operand, err", MALFORMED_OPERANDS)
def test_malformed_mult_operands_keep_their_messages(k, operand, err):
    identity = {"0": "[]", "1": "[[1,1']]", "2": "[[1,1']]",
                "3": "[[1,1'],[2,2']]", "4": "[[1,1'],[2,2']]"}[k]
    assert run(["mult", "--k", k, "--a", operand, "--b", identity]) == (
        1, "", err)
    assert run(["mult", "--k", k, "--a", identity, "--b", operand]) == (
        1, "", err)


# the edge grid: each verb at levels, n and shapes at and past their edges
EDGE_K = ["-1", "0", "1", "2", "3", "5"]
EDGE_N = ["-1", "0", "1", "2", "7"]
EDGE_SHAPES = ["", "[]", "1", "2,1", "0", "1,2", "3"]
EDGE_TRIPLE = ["", "1", "2", "1,1"]
EDGE_OPERANDS = ["0", "1", "[]", "[[1,1']]", "[[1],[1']]",
                 "[[1,1'],[2],[2']]"]
# each verb that reads --max-k, with its other required flags
EDGE_MAX_K = {"diagrams": [], "paths": ["--lambda", ""],
              "blocks": ["--n", "2"], "graph-dot": ["--n", "2"],
              "permissible": ["--n", "2", "--lambda", ""]}


def edge_argvs():
    for k in EDGE_K:
        yield ["diagrams", "--k", k]
        yield ["dims", "--k", k]
        for verb, flags in EDGE_MAX_K.items():
            yield [verb, "--k", k, *flags, "--max-k", "2"]
        for lam in EDGE_SHAPES:
            yield ["paths", "--k", k, "--lambda", lam]
            yield ["dims", "--k", k, "--lambda", lam]
        for n in EDGE_N:
            yield ["blocks", "--k", k, "--n", n]
            yield ["blocks", "--k", k, "--n", n, "--verify"]
            yield ["graph-dot", "--k", k, "--n", n]
            yield ["decomp", "--k", k, "--n", n]
            for lam in EDGE_SHAPES:
                yield ["decomp", "--k", k, "--n", n, "--lambda", lam]
                yield ["simple-dim", "--k", k, "--n", n, "--lambda", lam]
                yield ["permissible", "--k", k, "--n", n, "--lambda", lam]
                for module in ("simple", "cell"):
                    yield ["restrict", "--k", k, "--n", n, "--lambda", lam,
                           "--module", module]
        for a, b in itertools.product(EDGE_OPERANDS, repeat=2):
            yield ["mult", "--k", k, "--a", a, "--b", b]
    for lam, mu, nu in itertools.product(EDGE_TRIPLE, repeat=3):
        triple = ["--lambda", lam, "--mu", mu, "--nu", nu]
        for verb in ("kronecker", "stable", "monotone"):
            yield [verb, *triple]
            yield [verb, *triple, "--max-n", "2"]
        for n in EDGE_N:
            yield ["kronecker", *triple, "--n", n]
            yield ["kronecker", *triple, "--nmax", n]
            yield ["monotone", *triple, "--nmax", n]


# sha256 of (argv, exit, stdout, stderr) over the grid, stderr only where it
# is the CLI's own error: or refused: line
EDGE_DIGEST = ("bd018a64072f0fa06730a3bbb9678917281a892a"
               "77ef9ab679c79fc60f3ee742")


def test_the_edge_grid_keeps_its_exit_codes_and_bytes():
    """Every argv of the grid exits 0 with output and an empty stderr, 1 or
    3 with one error: or refused: line and no output, or 2 with argparse's
    usage.  Usage messages are checked by shape only: their wording is
    argparse's and may differ between Python releases."""
    digest = hashlib.sha256()
    codes = {}
    for argv in edge_argvs():
        code, out, err = run(argv)
        codes[code] = codes.get(code, 0) + 1
        if code == 0:
            assert out.endswith("\n") and err == "", argv
        elif code == 2:
            assert out == "" and err.startswith("usage: partalg"), argv
            assert err.splitlines()[-1].startswith(
                f"partalg {argv[0]}: error: "), argv
            err = None
        else:
            assert code in (1, 3), argv
            tag = {1: "error: ", 3: "refused: "}[code]
            assert out == "" and err.startswith(tag), argv
            assert err.count("\n") == 1 and err.endswith("\n"), argv
        digest.update(repr((argv, code, out, err)).encode())
    assert all(codes.get(c) for c in (0, 1, 2, 3)), codes
    assert digest.hexdigest() == EDGE_DIGEST
