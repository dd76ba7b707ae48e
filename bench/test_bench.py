"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import partalg.cli as cli  # noqa: E402
from partalg import parse_element  # noqa: E402

SEEDS = (0, 1, 7)
# verbs that read --max-k today
BOUNDED_K = ("diagrams", "paths", "permissible", "blocks", "graph-dot")


@pytest.fixture(autouse=True)
def cold():
    for fn in tracing.memo_caches().values():
        fn.cache_clear()
    yield
    for fn in tracing.memo_caches().values():
        fn.cache_clear()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    for seed in SEEDS:
        assert workloads.generate(name, seed) == workloads.generate(name, seed)
    assert workloads.generate(name, 1) != workloads.generate(name, 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_emits_valid_argv(name):
    parser = cli.build_parser()
    for seed in SEEDS:
        reqs = workloads.generate(name, seed)
        assert len(reqs) >= 50
        assert {r.expect for r in reqs} == {0, 3}
        for req in reqs:
            args = parser.parse_args(list(req.argv))
            if req.verb == "mult":
                for text in (args.a, args.b):
                    terms = parse_element(text, args.k).terms
                    assert 1 <= len(terms) <= 30
            if req.expect == 0 and req.verb in BOUNDED_K:
                assert args.max_k >= args.k
            if req.expect == 0 and req.verb in ("stable", "monotone"):
                assert args.max_n >= workloads.stable_level(
                    args.lam, args.mu, args.nu)
            if req.expect == 0 and req.verb == "kronecker":
                assert args.max_n >= (args.n if args.n is not None
                                      else args.nmax)


def test_default_seed_outputs_match_frozen_digests():
    frozen = json.loads(run.DIGESTS.read_text())
    assert set(frozen) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        reqs = workloads.generate(name, workloads.DEFAULT_SEED)
        assert len(frozen[name]) == len(reqs)
    # a cheap sample; a benchmark run checks every request
    reqs = [r for r in workloads.generate("branching_modules", 0)
            if r.verb in ("dims", "restrict")][:6]
    got = run.run_pass(reqs, tracing.memo_caches(), traced=False)
    all_reqs = workloads.generate("branching_modules", 0)
    want = [frozen["branching_modules"][all_reqs.index(r)] for r in reqs]
    assert [r.digest for r in got.results] == want


def _sample(name, verbs, size):
    return [r for r in workloads.generate(name, 3) if r.verb in verbs][:size]


def test_traced_outputs_are_byte_identical_to_plain():
    reqs = (_sample("diagram_algebra", ("mult", "diagrams"), 4)
            + _sample("branching_modules", ("permissible", "blocks", "decomp",
                                            "graph-dot"), 6)
            + _sample("kronecker_limits", ("monotone", "kronecker"), 4))
    caches = tracing.memo_caches()
    plain = run.run_pass(reqs, caches, traced=False)
    traced = run.run_pass(reqs, caches, traced=True)
    assert ([(r.code, r.digest) for r in plain.results]
            == [(r.code, r.digest) for r in traced.results])
    records = [r.trace for r in traced.results]
    assert [r["request"] for r in records] == list(range(len(reqs)))
    assert all(r["spans"]["cli.main"][0] == 1 for r in records)
    layers = tracing.layer_metrics(records, 1)
    assert layers["diagrams.compose.calls"] > 0
    assert layers["branching.paths_out"] > 0
    assert layers["kronecker.kronecker_coefficient.calls"] > 0
    assert set(layers) == {name for name, _ in tracing.LAYER_METRICS}


def test_percentile_needs_ten_samples_beyond_p90():
    assert run.percentile(range(1, 101), 0.9) == 90
    with pytest.raises(ValueError):
        run.percentile(range(1, 100), 0.9)
    assert run.percentile([3, 1, 2], 0.5) == 2


def test_cold_cache_check_fires_on_a_warm_cache():
    caches = tracing.memo_caches()
    names = {name.rsplit(".", 1)[1] for name in caches}
    assert {"cell_dimension", "_simple_dimension", "mn_character",
            "class_size"} <= names
    runner.cold_caches(caches)
    from partalg import cell_dimension, vertex
    cell_dimension(vertex((1,), 4))
    with pytest.raises(RuntimeError, match="cell_dimension"):
        runner.cold_caches(caches)
    with pytest.raises(RuntimeError):
        run.run_pass(_sample("branching_modules", ("dims",), 1), caches,
                     traced=False)


def test_children_always_exit_through_os_exit():
    parent = os.getpid()
    usage = runner.run_request(cli.main, ["diagrams", "--no-such-flag"])
    assert usage.code == 2 and b"usage" in usage.stderr

    def crash(argv):
        raise KeyError("boom")

    def leave(argv):
        sys.exit(5)

    assert runner.run_request(crash, []).code == runner.CRASHED
    assert runner.run_request(leave, []).code == 5
    refused = runner.run_request(cli.main, ["diagrams", "--k", "15"])
    assert refused.code == 3 and refused.stdout == b""
    assert os.getpid() == parent


def test_invariant_checks_reject_a_wrong_answer():
    req = workloads.Request(("diagrams", "--k", "3", "--max-k", "3"), 0)
    good = runner.run_request(cli.main, req.argv).stdout
    assert checks.check(req, good) is None
    bad = json.loads(good)
    bad["count"] += 1
    assert checks.check(req, json.dumps(bad).encode()) is not None
