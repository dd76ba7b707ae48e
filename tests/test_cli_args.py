"""The CLI's two argument routes: the plain form read straight from the verb
table, and argparse for everything else (help, usage errors)."""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import partalg.cli as cli

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
    selftest = cli.run_selftest
    cli.run_selftest = lambda: []   # its checks are not what is compared
    try:
        assert run(argv) == run_through_argparse(argv)
    finally:
        cli.run_selftest = selftest


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


def test_graph_dot_refuses_a_negative_level():
    assert run(["graph-dot", "--k", "-1", "--n", "0"]) == (
        1, "", "error: level must be nonnegative\n")


def test_mult_reports_malformed_diagrams_in_diagram_terms():
    code, out, err = run(["mult", "--k", "2", "--a", "[[1,1']]+[[1],[1']]",
                          "--b", "[[1,1']]"])
    assert (code, out) == (1, "")
    assert err == "error: malformed diagram \"[[1,1']]+[[1],[1']]\"\n"
    assert run(["mult", "--k", "2", "--a", "[[1,3']]", "--b", "[[1,1']]"]) == (
        1, "", "error: point 3' out of range for 1 dots\n")
