"""Correctness checks on request outputs, run after the timed loop.

Each admitted request's stdout is checked against a fact computed by another
route: Bell numbers (in workloads.py) and branching-graph path counts are
computed from scratch, simple dimensions by the alternating sum down the block chain, and
stable limits by the plain padded coefficient one level further.  The parent
process runs these only after every fork, so its warm caches never reach a
child.
"""

from __future__ import annotations

import json

from tracing import partalg_modules
from workloads import Request, bell, flags


def library(name: str):
    """A partalg function by name, wherever the package keeps it."""
    for mod in partalg_modules():
        if hasattr(mod, name):
            return getattr(mod, name)
    raise LookupError(f"partalg has no {name}")


def path_counts(k: int) -> dict[tuple[int, ...], int]:
    """Paths from the empty shape to each level-k shape, counted level by
    level: into an even level a shape is kept or gains a node, into an odd
    level it is kept or loses one; shapes stay within floor(level/2)."""
    counts = {(): 1}
    for level in range(1, k + 1):
        nxt: dict[tuple[int, ...], int] = {}
        for lam, c in counts.items():
            for mu in _neighbours(lam, grow=level % 2 == 0):
                if sum(mu) <= level // 2:
                    nxt[mu] = nxt.get(mu, 0) + c
        counts = nxt
    return counts


def _neighbours(lam, grow: bool):
    yield lam
    parts = list(lam) + [0]
    for i in range(len(parts)):
        if grow and (i == 0 or parts[i] < parts[i - 1]):
            new = parts[:i] + [parts[i] + 1] + parts[i + 1:]
        elif not grow and parts[i] and parts[i] > parts[i + 1]:
            new = parts[:i] + [parts[i] - 1] + parts[i + 1:]
        else:
            continue
        yield tuple(p for p in new if p)


def _shape(text: str) -> tuple[int, ...]:
    text = text.strip("[]")
    return tuple(int(p) for p in text.split(",")) if text else ()


def check(req: Request, stdout: bytes) -> str | None:
    """None when the output passes its verb's invariant, else the reason."""
    verb, f = req.verb, flags(req.argv)
    if req.expect != 0:
        return None if not stdout else "a refusal printed to stdout"
    if verb in ("graph-dot",) or (verb in ("kronecker", "monotone")
                                  and f.get("format") == "csv"):
        return None if stdout else "empty output"
    out = json.loads(stdout)
    k = int(f["k"]) if "k" in f else None
    n = int(f["n"]) if "n" in f else None
    if verb == "diagrams":
        if out["count"] != bell(k) or len(out["diagrams"]) != out["count"]:
            return f"count {out['count']} is not Bell({k}) = {bell(k)}"
    elif verb == "paths":
        want = path_counts(k)[_shape(f["lambda"])]
        if out["count"] != want or len(out["paths"]) != want:
            return f"{out['count']} paths, the branching graph has {want}"
    elif verb in ("permissible", "simple-dim"):
        want = _simple(f["lambda"], k, n)
        got = out["count"] if verb == "permissible" else out["dim"]
        if got != want or (verb == "permissible" and len(out["paths"]) != got):
            return f"{got}, alternating sum gives {want}"
    elif verb == "dims":
        cells = path_counts(k)
        if "lambda" in f:
            if out["dim"] != cells[_shape(f["lambda"])]:
                return f"dim {out['dim']} differs from the path count"
        elif out["sum_of_squares"] != bell(k):
            return f"sum of squares {out['sum_of_squares']} is not Bell({k})"
    elif verb == "decomp":
        rows = [out] if "lambda" in f else out["rows"]
        cells = path_counts(k)
        for row in rows:
            cell = _shape(row["cell"]["shape"])
            total = sum(fac["mult"] * _simple(fac["shape"], k, n)
                        for fac in row["factors"])
            dims = row["dims"]
            if not (total == cells[cell] == dims["cell"]
                    and dims["simple"] == _simple(row["cell"]["shape"], k, n)
                    and dims["radical"] == dims["cell"] - dims["simple"]):
                return f"row of {row['cell']['shape']}: factors sum to {total}"
    elif verb == "blocks":
        if out["verified"] != ("verify" in f):
            return "verified flag does not match the request"
    elif verb == "stable":
        padded = library("padded_kronecker")
        g, valid = padded(_shape(f["lambda"]), _shape(f["mu"]),
                          _shape(f["nu"]), out["stable_at"] + 1)
        if not valid or g != out["stable"]:
            return f"limit {out['stable']} but g at n0+1 is {g}"
    elif verb == "monotone":
        if out["passed"] is not True:
            return "monotone check did not pass"
    elif verb == "mult":
        parse = library("parse_element")
        a, b = parse(f["a"], k), parse(f["b"], k)
        product = parse(out["product"], k)
        if product.star() != b.star() * a.star():
            return "(ab)* differs from b*a*"
    return None


def _simple(shape: str, k: int, n: int) -> int:
    v = library("vertex")(_shape(shape), k)
    return library("simple_dimension_by_alternating_sum")(v, n)
