"""Command-line interface.

Every verb prints deterministic JSON (CSV where `--format csv` is asked for;
`graph-dot` prints DOT), so runs are byte-for-byte reproducible.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 refusal on a resource bound.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .branching import (cell_dimension, enumerate_paths, format_path, vertex,
                        vertices_at_level)
from .diagrams import enumerate_diagrams, format_diagram, parse_element
from .dot import emit_dot
from .errors import (DEFAULT_MAX_LEVEL, DEFAULT_MAX_N, InternalCheckError,
                     ResourceLimitError, guard)
from .kronecker import (check_monotone, kronecker_sequence, padded_kronecker,
                        stable_kronecker)
from .modules import (decomposition_row, permissible_paths, radical_dimension,
                      restrict_cell, restrict_simple, simple_dimension)
from .partitions import format_partition, parse_partition
from .residues import linkage_classes


def _emit(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _emit_sequence_csv(lam, mu, nu, entries) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda", "mu", "nu", "n", "g", "valid"])
    writer.writerows([format_partition(lam), format_partition(mu),
                      format_partition(nu), e.n, e.g, e.valid]
                     for e in entries)
    sys.stdout.write(buf.getvalue())


def _vertex_json(v) -> dict:
    return {"shape": format_partition(v.shape), "level": v.level}


def _triple_json(lam, mu, nu) -> dict:
    return {"lambda": format_partition(lam), "mu": format_partition(mu),
            "nu": format_partition(nu)}


def cmd_diagrams(args) -> None:
    diags = enumerate_diagrams(args.k, max_level=args.max_k)
    _emit({"k": args.k, "count": len(diags),
           "diagrams": [format_diagram(d) for d in diags]})


def cmd_mult(args) -> None:
    a = parse_element(args.a, args.k)
    b = parse_element(args.b, args.k)
    _emit({"k": args.k, "a": str(a), "b": str(b), "product": str(a * b)})


def cmd_paths(args) -> None:
    v = vertex(args.lam, args.k)
    paths = enumerate_paths(v, max_level=args.max_k)
    _emit({"vertex": _vertex_json(v), "count": len(paths),
           "paths": [format_path(t) for t in paths]})


def cmd_dims(args) -> None:
    if args.lam is not None:
        v = vertex(args.lam, args.k)
        _emit({"vertex": _vertex_json(v), "dim": cell_dimension(v)})
        return
    cells = [{"shape": format_partition(v.shape), "dim": cell_dimension(v)}
             for v in vertices_at_level(args.k)]
    _emit({"k": args.k, "cells": cells,
           "sum_of_squares": sum(c["dim"] ** 2 for c in cells)})


def cmd_blocks(args) -> None:
    classes = linkage_classes(args.k, args.n, verify=args.verify,
                              max_level=args.max_k)
    _emit({"k": args.k, "n": args.n, "verified": bool(args.verify),
           "classes": [[format_partition(v.shape) for v in c]
                       for c in classes]})


def _decomp_json(v, n) -> dict:
    row = decomposition_row(v, n)
    return {
        "cell": _vertex_json(v),
        "factors": [{"shape": format_partition(w.shape), "mult": m}
                    for w, m in row.factors],
        "dims": {"cell": cell_dimension(v),
                 "simple": simple_dimension(v, n),
                 "radical": radical_dimension(v, n)},
    }


def cmd_decomp(args) -> None:
    if args.lam is not None:
        _emit(_decomp_json(vertex(args.lam, args.k), args.n))
        return
    _emit({"k": args.k, "n": args.n,
           "rows": [_decomp_json(v, args.n) for v in vertices_at_level(args.k)]})


def cmd_simple_dim(args) -> None:
    v = vertex(args.lam, args.k)
    _emit({"dim": simple_dimension(v, args.n)})


def cmd_restrict(args) -> None:
    v = vertex(args.lam, args.k)
    down = (restrict_cell(v) if args.module == "cell"
            else restrict_simple(v, args.n))
    _emit({"vertex": _vertex_json(v), "n": args.n, "module": args.module,
           "restriction": [_vertex_json(u) for u in down]})


def cmd_permissible(args) -> None:
    v = vertex(args.lam, args.k)
    paths = permissible_paths(v, args.n, max_level=args.max_k)
    _emit({"vertex": _vertex_json(v), "n": args.n, "count": len(paths),
           "paths": [format_path(t) for t in paths]})


def cmd_kronecker(args) -> None:
    lam, mu, nu = args.lam, args.mu, args.nu
    if args.n is not None:
        guard("n", args.n, "--max-n", args.max_n)
        g, valid = padded_kronecker(lam, mu, nu, args.n)
        _emit({**_triple_json(lam, mu, nu), "n": args.n, "g": g,
               "valid": valid})
        return
    nmax = args.nmax if args.nmax is not None else args.max_n
    guard("n", nmax, "--max-n", args.max_n)
    entries = kronecker_sequence(lam, mu, nu, nmax)
    if args.format == "csv":
        _emit_sequence_csv(lam, mu, nu, entries)
        return
    _emit({**_triple_json(lam, mu, nu),
           "sequence": [[e.n, e.g, e.valid] for e in entries]})


def cmd_stable(args) -> None:
    g, n0 = stable_kronecker(args.lam, args.mu, args.nu, max_n=args.max_n)
    _emit({**_triple_json(args.lam, args.mu, args.nu), "stable": g,
           "stable_at": n0})


def cmd_monotone(args) -> None:
    report = check_monotone(args.lam, args.mu, args.nu, args.nmax,
                            max_n=args.max_n)
    if args.format == "csv":
        _emit_sequence_csv(report.lam, report.mu, report.nu, report.entries)
        return
    _emit({**_triple_json(report.lam, report.mu, report.nu),
           "sequence": [[e.n, e.g, e.valid] for e in report.entries],
           "stable": report.stable, "stable_at": report.stable_at,
           "first_flat": report.first_flat, "passed": report.passed,
           "violations": list(report.violations)})


def cmd_graph_dot(args) -> None:
    guard("level", args.k, "--max-k", args.max_k)
    sys.stdout.write(emit_dot(args.k, args.n))


def cmd_selftest(args) -> None:
    from .selftest import run_selftest
    results = run_selftest()
    for r in results:
        print(f"{'ok' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    if not all(r.ok for r in results):
        raise InternalCheckError("selftest found mismatches")


def _partition_arg(text: str):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# every flag a verb may take; a trailing "?" marks a flag's optional form
FLAGS = {
    "--k": dict(type=int, required=True),
    "--n": dict(type=int, required=True),
    "--n?": dict(type=int, default=None),
    "--lambda": dict(dest="lam", type=_partition_arg, required=True),
    "--lambda?": dict(dest="lam", type=_partition_arg, default=None),
    "--mu": dict(type=_partition_arg, required=True),
    "--nu": dict(type=_partition_arg, required=True),
    "--nmax": dict(type=int, default=None),
    "--a": dict(required=True),
    "--b": dict(required=True),
    "--module": dict(choices=("simple", "cell"), default="simple"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--verify": dict(action="store_true"),
    "--max-k": dict(dest="max_k", type=int, default=DEFAULT_MAX_LEVEL),
    "--max-n": dict(dest="max_n", type=int, default=DEFAULT_MAX_N),
}

# verb -> (handler, the flags that handler reads); the whole CLI surface
VERBS = {
    "diagrams": (cmd_diagrams, ("--k", "--max-k")),
    "mult": (cmd_mult, ("--k", "--a", "--b")),
    "paths": (cmd_paths, ("--k", "--lambda", "--max-k")),
    "dims": (cmd_dims, ("--k", "--lambda?")),
    "blocks": (cmd_blocks, ("--k", "--n", "--verify", "--max-k")),
    "decomp": (cmd_decomp, ("--k", "--n", "--lambda?")),
    "simple-dim": (cmd_simple_dim, ("--k", "--n", "--lambda")),
    "restrict": (cmd_restrict, ("--k", "--n", "--lambda", "--module")),
    "permissible": (cmd_permissible, ("--k", "--n", "--lambda", "--max-k")),
    "kronecker": (cmd_kronecker, ("--n?", "--lambda", "--mu", "--nu",
                                  "--nmax", "--format", "--max-n")),
    "stable": (cmd_stable, ("--lambda", "--mu", "--nu", "--max-n")),
    "monotone": (cmd_monotone, ("--lambda", "--mu", "--nu", "--nmax",
                                "--format", "--max-n")),
    "graph-dot": (cmd_graph_dot, ("--k", "--n", "--max-k")),
    "selftest": (cmd_selftest, ()),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser for one verb of VERBS, or for all of them by default."""
    parser = argparse.ArgumentParser(
        prog="partalg",
        description="partition-algebra combinatorics and Kronecker limits")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in (verb,) if verb is not None else VERBS:
        fn, flags = VERBS[name]
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag.rstrip("?"), **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no verb, --help or an unknown verb: the full parser and its messages
    verb = argv[0] if argv and argv[0] in VERBS else None
    args = build_parser(verb).parse_args(argv)
    try:
        args.fn(args)
    except ResourceLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, InternalCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
