"""Command-line interface.

Every verb prints deterministic JSON (CSV where `--format csv` is asked for;
`graph-dot` prints DOT), so runs are byte-for-byte reproducible.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 refusal on a resource bound,
141 (128 + SIGPIPE) when stdout is closed before the output is written.
Every bound is checked here, before the work it bounds: `--max-k` in main,
`--max-n` in the Kronecker handlers.

Flags are read straight from the verb table (`VERBS`, `FLAGS`); argparse is
built only for `--help` and usage errors, so its messages stay the only ones.
The oracles are loaded only by `blocks --verify` and `selftest`, inside their
handlers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .branching import (PATH_TEXT, cell_dimension, enumerate_paths, vertex,
                        vertices_at_level)
from .diagrams import (dots_for_level, enumerate_diagrams, format_diagrams,
                       parse_element)
from .dot import emit_dot
from .errors import (DEFAULT_MAX_LEVEL, DEFAULT_MAX_N, InternalCheckError,
                     ResourceLimitError, guard)
from .kronecker import (check_monotone, kronecker_at, kronecker_sequence,
                        stable_kronecker, stable_level)
from .modules import (blocks_at_level, decomposition_row, permissible_paths,
                      radical_dimension, restrict_cell, restrict_simple,
                      simple_dimension)
from .partitions import format_partition, parse_partition


def _emit(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _emit_sequence(fmt, lam, mu, nu, entries, **report) -> None:
    """A Kronecker sequence as CSV rows, or as one JSON object: the triple,
    the sequence, then the fields of report."""
    if fmt == "json":
        _emit({**_triple_json(lam, mu, nu),
               "sequence": [[e.n, e.g, e.valid] for e in entries], **report})
        return
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
    diags = enumerate_diagrams(args.k, max_level=None)
    _emit({"k": args.k, "count": len(diags),
           "diagrams": format_diagrams(dots_for_level(args.k), diags)})


def cmd_mult(args) -> None:
    a = parse_element(args.a, args.k)
    b = parse_element(args.b, args.k)
    _emit({"k": args.k, "a": str(a), "b": str(b), "product": str(a * b)})


def cmd_paths(args) -> None:
    v = vertex(args.lam, args.k)
    paths = enumerate_paths(v, None, PATH_TEXT)
    _emit({"vertex": _vertex_json(v), "count": len(paths), "paths": paths})


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
    if args.verify:
        from .oracles import linkage_classes
        classes = linkage_classes(args.k, args.n)
    else:
        classes = blocks_at_level(args.k, args.n)
    _emit({"k": args.k, "n": args.n, "verified": bool(args.verify),
           "classes": [[format_partition(v.shape) for v in c]
                       for c in classes]})


def _decomp_json(v, n) -> dict:
    return {
        "cell": _vertex_json(v),
        "factors": [{"shape": format_partition(w.shape), "mult": m}
                    for w, m in decomposition_row(v, n)],
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
    if args.n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    down = (restrict_cell(v) if args.module == "cell"
            else restrict_simple(v, args.n))
    _emit({"vertex": _vertex_json(v), "n": args.n, "module": args.module,
           "restriction": [_vertex_json(u) for u in down]})


def cmd_permissible(args) -> None:
    v = vertex(args.lam, args.k)
    paths = permissible_paths(v, args.n, None, PATH_TEXT)
    _emit({"vertex": _vertex_json(v), "n": args.n, "count": len(paths),
           "paths": paths})


def cmd_kronecker(args) -> None:
    lam, mu, nu = args.lam, args.mu, args.nu
    if args.n is not None:
        # --nmax and --format csv shape a sequence; one n has none
        for flag, given in (("--nmax", args.nmax is not None),
                            ("--format csv", args.format == "csv")):
            if given:
                raise argparse.ArgumentError(
                    None, f"argument {flag}: not allowed with argument --n")
        guard("n", args.n, "--max-n", args.max_n)
        g, valid = kronecker_at(lam, mu, nu, args.n)
        _emit({**_triple_json(lam, mu, nu), "n": args.n, "g": g,
               "valid": valid})
        return
    nmax = args.nmax if args.nmax is not None else args.max_n
    guard("n", nmax, "--max-n", args.max_n)
    _emit_sequence(args.format, lam, mu, nu,
                   kronecker_sequence(lam, mu, nu, nmax))


def cmd_stable(args) -> None:
    guard("stable level n0", stable_level(args.lam, args.mu, args.nu),
          "--max-n", args.max_n)
    g, n0 = stable_kronecker(args.lam, args.mu, args.nu)
    _emit({**_triple_json(args.lam, args.mu, args.nu), "stable": g,
           "stable_at": n0})


def cmd_monotone(args) -> None:
    nmax = (args.nmax if args.nmax is not None
            else stable_level(args.lam, args.mu, args.nu) + 2)
    guard("n_max", nmax, "--max-n", args.max_n)
    report = check_monotone(args.lam, args.mu, args.nu, nmax)
    _emit_sequence(args.format, report.lam, report.mu, report.nu,
                   report.entries, stable=report.stable,
                   stable_at=report.stable_at, first_flat=report.first_flat,
                   passed=report.passed, violations=list(report.violations))


def cmd_graph_dot(args) -> None:
    sys.stdout.write(emit_dot(args.k, args.n))


def cmd_selftest(args) -> None:
    from .oracles import run_selftest
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
    "--verify": dict(action="store_true", default=False),
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


def _plain_args(verb: str, argv) -> argparse.Namespace | None:
    """What build_parser(verb).parse_args([verb, *argv]) returns, read from
    the table, when argv is plain: each of the verb's flags at most once,
    spelled out, every value a separate token not starting with "-", every
    value converted and every required flag given.  None for anything else,
    which argparse then parses or rejects with its own message."""
    fn, names = VERBS[verb]
    specs = {name.rstrip("?"): FLAGS[name] for name in names}
    dests = {flag: spec.get("dest", flag[2:].replace("-", "_"))
             for flag, spec in specs.items()}
    values = {dests[flag]: spec.get("default") for flag, spec in specs.items()}
    tokens = iter(argv)
    for flag in tokens:
        spec = specs.pop(flag, None)   # popped: a repeated flag is unknown
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            value = True
        else:
            text = next(tokens, "-")   # a missing value reads as a flag
            if text.startswith("-"):
                return None
            try:
                value = spec.get("type", str)(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if value not in spec.get("choices", (value,)):
                return None
        values[dests[flag]] = value
    if any(spec.get("required") for spec in specs.values()):
        return None
    return argparse.Namespace(verb=verb, fn=fn, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no verb, --help or an unknown verb: the full parser and its messages
    verb = argv[0] if argv and argv[0] in VERBS else None
    args = _plain_args(verb, argv[1:]) if verb is not None else None
    parser = None
    if args is None:
        parser = build_parser(verb)
        args = parser.parse_args(argv)
    try:
        # every verb that reads --max-k refuses a deeper level here, once
        if "--max-k" in VERBS[args.verb][1]:
            guard("level", args.k, "--max-k", args.max_k)
        args.fn(args)
        sys.stdout.flush()   # here, not at interpreter exit, if it fails
    except BrokenPipeError:
        # the reader is gone: the unwritten rest goes to devnull, so the
        # flush at exit cannot fail again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except argparse.ArgumentError as exc:
        (parser or build_parser(verb)).error(str(exc))
    except (ResourceLimitError, RecursionError) as exc:
        # memoised walks recurse once per level: too deep a level is refused
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, InternalCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
