"""Command-line interface.

Every verb prints deterministic JSON (or CSV/DOT where asked) so runs are
byte-for-byte reproducible.  Exit codes: 0 success, 1 domain error, 2 usage
error, 3 refusal on a resource bound.
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
from .errors import (DEFAULT_MAX_K, DEFAULT_MAX_N, InternalCheckError,
                     ResourceLimitError)
from .kronecker import (check_monotone, kronecker_sequence, padded_kronecker,
                        stable_kronecker)
from .modules import (decomposition_row, permissible_paths, radical_dimension,
                      restrict_cell, restrict_simple, simple_dimension)
from .partitions import format_partition, parse_partition
from .residues import linkage_classes


def _emit(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _emit_csv(rows, header) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _vertex_json(v) -> dict:
    return {"shape": format_partition(v.shape), "level": v.level}


def _guard_level(k: int, max_k: int) -> None:
    if k > max_k:
        raise ResourceLimitError(
            f"level {k} exceeds --max-k {max_k}; raise the bound explicitly")


def _guard_n(n: int, max_n: int) -> None:
    if n > max_n:
        raise ResourceLimitError(
            f"n {n} exceeds --max-n {max_n}; raise the bound explicitly")


def cmd_diagrams(args) -> None:
    _guard_level(args.k, args.max_k)
    diags = enumerate_diagrams(args.k, max_level=args.max_k)
    _emit({"k": args.k, "count": len(diags),
           "diagrams": [format_diagram(d) for d in diags]})


def cmd_mult(args) -> None:
    a = parse_element(args.a, args.k)
    b = parse_element(args.b, args.k)
    _emit({"k": args.k, "a": str(a), "b": str(b), "product": str(a * b)})


def cmd_paths(args) -> None:
    _guard_level(args.k, args.max_k)
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
    if args.module == "cell":
        down = restrict_cell(v)
    else:
        down = restrict_simple(v, args.n)
    _emit({"vertex": _vertex_json(v), "n": args.n, "module": args.module,
           "restriction": [_vertex_json(u) for u in down]})


def cmd_permissible(args) -> None:
    _guard_level(args.k, args.max_k)
    v = vertex(args.lam, args.k)
    paths = permissible_paths(v, args.n, max_level=args.max_k)
    _emit({"vertex": _vertex_json(v), "n": args.n, "count": len(paths),
           "paths": [format_path(t) for t in paths]})


def _sequence_rows(lam, mu, nu, entries):
    return [[format_partition(lam), format_partition(mu), format_partition(nu),
             e.n, e.g, e.valid] for e in entries]


def cmd_kronecker(args) -> None:
    lam, mu, nu = args.lam, args.mu, args.nu
    if args.n is not None:
        _guard_n(args.n, args.max_n)
        g, valid = padded_kronecker(lam, mu, nu, args.n)
        _emit({"lambda": format_partition(lam), "mu": format_partition(mu),
               "nu": format_partition(nu), "n": args.n, "g": g,
               "valid": valid})
        return
    nmax = args.nmax if args.nmax is not None else args.max_n
    _guard_n(nmax, args.max_n)
    entries = kronecker_sequence(lam, mu, nu, nmax)
    if args.format == "csv":
        _emit_csv(_sequence_rows(lam, mu, nu, entries),
                  ["lambda", "mu", "nu", "n", "g", "valid"])
        return
    _emit({"lambda": format_partition(lam), "mu": format_partition(mu),
           "nu": format_partition(nu),
           "sequence": [[e.n, e.g, e.valid] for e in entries]})


def cmd_stable(args) -> None:
    g, n0 = stable_kronecker(args.lam, args.mu, args.nu)
    _emit({"lambda": format_partition(args.lam), "mu": format_partition(args.mu),
           "nu": format_partition(args.nu), "stable": g, "stable_at": n0})


def cmd_monotone(args) -> None:
    if args.nmax is not None:
        _guard_n(args.nmax, args.max_n)
    report = check_monotone(args.lam, args.mu, args.nu, args.nmax)
    payload = {
        "lambda": format_partition(report.lam),
        "mu": format_partition(report.mu),
        "nu": format_partition(report.nu),
        "sequence": [[e.n, e.g, e.valid] for e in report.entries],
        "stable": report.stable,
        "stable_at": report.stable_at,
        "first_flat": report.first_flat,
        "passed": report.passed,
        "violations": list(report.violations),
    }
    if args.format == "csv":
        _emit_csv(_sequence_rows(report.lam, report.mu, report.nu,
                                 report.entries),
                  ["lambda", "mu", "nu", "n", "g", "valid"])
        return
    _emit(payload)


def cmd_graph_dot(args) -> None:
    _guard_level(args.k, args.max_k)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partalg",
        description="partition-algebra combinatorics and Kronecker limits")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **needs):
        p = sub.add_parser(name)
        if needs.get("k"):
            p.add_argument("--k", type=int, required=True)
        if needs.get("n"):
            p.add_argument("--n", type=int, required=needs["n"] == "required")
        if needs.get("lam"):
            p.add_argument("--lambda", dest="lam", type=_partition_arg,
                           required=needs["lam"] == "required", default=None)
        if needs.get("mu"):
            p.add_argument("--mu", type=_partition_arg, required=True)
            p.add_argument("--nu", type=_partition_arg, required=True)
        if needs.get("nmax"):
            p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv", "dot"),
                       default="json")
        p.add_argument("--verify", action="store_true")
        p.add_argument("--max-k", dest="max_k", type=int, default=DEFAULT_MAX_K)
        p.add_argument("--max-n", dest="max_n", type=int, default=DEFAULT_MAX_N)
        p.set_defaults(fn=fn)
        return p

    add("diagrams", cmd_diagrams, k=True)
    p = add("mult", cmd_mult, k=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add("paths", cmd_paths, k=True, lam="required")
    add("dims", cmd_dims, k=True, lam="optional")
    add("blocks", cmd_blocks, k=True, n="required")
    add("decomp", cmd_decomp, k=True, n="required", lam="optional")
    add("simple-dim", cmd_simple_dim, k=True, n="required", lam="required")
    p = add("restrict", cmd_restrict, k=True, n="required", lam="required")
    p.add_argument("--module", choices=("simple", "cell"), default="simple")
    add("permissible", cmd_permissible, k=True, n="required", lam="required")
    add("kronecker", cmd_kronecker, n="optional", lam="required", mu=True,
        nmax=True)
    add("stable", cmd_stable, lam="required", mu=True)
    add("monotone", cmd_monotone, lam="required", mu=True, nmax=True)
    add("graph-dot", cmd_graph_dot, k=True, n="required")
    add("selftest", cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
