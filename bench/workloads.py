"""Seeded request lists for the three benchmark workloads.

A request is the argv of one `partalg` CLI invocation plus the exit code it
must end with.  The generator knows nothing of the library: it builds shapes,
diagrams and polynomials from its own few lines of combinatorics, so the
program under test sees only argv.

Sizes are stratified and the seed picks the content inside each stratum
(which shape, which diagrams, which coefficients, the order).  Every seed
then asks for about the same amount of work, so run-to-run spread measures
the program and the machine, not the luck of the draw.

Admitted requests pass explicit `--max-k` / `--max-n` values that admit
their work on the verbs that honour a bound; refusals rely on the defaults
(`--max-k 14`, `--max-n 10`) and must exit 3.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

DEFAULT_SEED = 0


class Request(NamedTuple):
    argv: tuple[str, ...]
    expect: int  # exit code: 0 for an answer, 3 for a refusal

    @property
    def verb(self) -> str:
        return self.argv[0]


def flags(argv) -> dict[str, str]:
    """The `--name value` pairs of an argv; bare flags map to ""."""
    out: dict[str, str] = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[name] = argv[i + 1]
            i += 2
        else:
            out[name] = ""
            i += 1
    return out


# --- shapes -----------------------------------------------------------------

@lru_cache(maxsize=None)
def partitions(size: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of size, largest first part first."""
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    return tuple(rec(size, size))


def fmt_shape(lam) -> str:
    return ",".join(str(p) for p in lam)


def alcove_kind(lam, k: int, n: int) -> str:
    """"wall" or "alcove" for the vertex (lam, k) at parameter n.

    The head coordinate (n, or n - 1 on odd levels, minus |lam|) is compared
    with the staircase lam_j - j; the first j where the head meets or
    exceeds it decides.
    """
    head = (n if k % 2 == 0 else n - 1) - sum(lam)
    j = 1
    while True:
        xj = (lam[j - 1] if j <= len(lam) else 0) - j
        if head == xj:
            return "wall"
        if head > xj:
            return "alcove"
        j += 1


def random_vertex(rng: random.Random, k: int, size: int | None = None):
    """A shape that is a vertex at level k, of the given size or any."""
    if size is None:
        size = rng.randint(0, k // 2)
    return rng.choice(partitions(size))


# --- diagrams and algebra elements ------------------------------------------

def _point(p: int) -> str:
    return str(p) if p > 0 else f"{-p}'"


def bell(k: int) -> int:
    """Bell number B(k), by the Bell triangle: the size of the level-k
    diagram basis."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def random_diagram(rng: random.Random, k: int) -> tuple[tuple, str]:
    """A diagram of the level-k basis: its blocks in a canonical order, and
    its text.

    Points 1..m and 1'..m' (m = ceil(k/2)) are dealt into blocks one by one;
    on odd levels m and m' travel together.
    """
    m = (k + 1) // 2
    units = [[p] for p in range(1, m + 1)] + [[-p] for p in range(1, m + 1)]
    if k % 2 == 1:
        units = [u for u in units if u[0] not in (m, -m)] + [[m, -m]]
    rng.shuffle(units)
    blocks: list[list[int]] = []
    for unit in units:
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append(list(unit))
        else:
            blocks[i].extend(unit)
    key = tuple(sorted(tuple(sorted(b)) for b in blocks))
    text = "[" + ",".join("[" + ",".join(_point(p) for p in b) + "]"
                          for b in blocks) + "]"
    return key, text


def random_zpoly(rng: random.Random) -> str:
    """A nonzero polynomial in z of degree at most 2, coefficients -3..3."""
    coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
    if not any(coeffs):
        coeffs[0] = 1
    pieces = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if pieces else "")
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + ("z" if d == 1 else f"z^{d}")
        pieces.append(sign + body)
    return "".join(pieces)


def random_element(rng: random.Random, k: int, terms: int) -> str:
    """A sum of distinct diagrams, as many as terms (at most the basis
    holds), so the parsed element has exactly that many terms."""
    picked: dict[tuple, str] = {}
    while len(picked) < min(terms, bell(k)):
        key, text = random_diagram(rng, k)
        picked.setdefault(key, text)
    out = []
    for d in picked.values():
        c = random_zpoly(rng)
        out.append(d if c == "1" else f"({c})*{d}")
    return " + ".join(out)


# --- workloads ----------------------------------------------------------------

def diagram_algebra(rng: random.Random) -> list[Request]:
    """Diagram enumeration (construct and sort) and algebra products
    (compose, ZPoly arithmetic, re-sorting terms)."""
    reqs = [Request(("diagrams", "--k", str(k), "--max-k", str(k)), 0)
            for k in (6, 7, 8) for _ in range(2)]
    # term counts spread evenly over 3..30 (at most 15, the basis, at level
    # 4); the seed picks the elements
    for level in (4, 5, 6, 7):
        for i in range(24):
            ta = 3 + (7 * i + level) % 28
            tb = 3 + (11 * i + 3 * level) % 28
            reqs.append(Request(
                ("mult", "--k", str(level),
                 "--a", random_element(rng, level, ta),
                 "--b", random_element(rng, level, tb)), 0))
    reqs += [Request(("diagrams", "--k", "15"), 3),
             Request(("diagrams", "--k", "16"), 3)]
    return reqs


def branching_modules(rng: random.Random) -> list[Request]:
    """Path enumeration (paths, permissible, blocks --verify) next to
    memoised counting (dims, decomp, simple-dim) and the geometry verbs."""
    reqs = []

    def vertex_args(k, size=None):
        return ("--k", str(k), "--lambda", fmt_shape(random_vertex(rng, k, size)))

    def n_arg():
        return ("--n", str(rng.randint(0, 6)))

    # sizes 1 and 2: each size has one cell dimension, so the enumeration
    # work of a level does not depend on the seed.  How many of those paths
    # are permissible depends on the shape and on n, so permissible, the
    # heaviest verb here, takes both from a fixed schedule.
    for k in range(8, 14):
        for size in (1, 2):
            reqs.append(Request(("paths",) + vertex_args(k, size)
                                + ("--max-k", str(k)), 0))
        for lam, n in (((1,), k % 7), (((2,), (1, 1))[k % 2], (k + 3) % 7)):
            reqs.append(Request(("permissible", "--k", str(k), "--lambda",
                                 fmt_shape(lam), "--n", str(n),
                                 "--max-k", str(k)), 0))
    for k in range(10, 15):
        reqs.append(Request(("blocks", "--k", str(k)) + n_arg()
                            + ("--max-k", str(k)), 0))
    for k in range(6, 12):
        reqs.append(Request(("blocks", "--k", str(k)) + n_arg()
                            + ("--verify", "--max-k", str(k)), 0))
    for k in range(4, 15):
        reqs.append(Request(("decomp", "--k", str(k)) + n_arg(), 0))
        reqs.append(Request(("decomp",) + vertex_args(k) + n_arg(), 0))
        reqs.append(Request(("simple-dim",) + vertex_args(k) + n_arg(), 0))
        reqs.append(Request(("dims", "--k", str(k)), 0))
        reqs.append(Request(("dims",) + vertex_args(k), 0))
    for k in range(2, 15):
        n = rng.randint(0, 6)
        lam = random_vertex(rng, k)
        module = "simple" if alcove_kind(lam, k, n) == "alcove" else "cell"
        reqs.append(Request(("restrict", "--k", str(k), "--n", str(n),
                             "--lambda", fmt_shape(lam), "--module", module), 0))
    for k in (6, 8, 10, 12, 14):
        reqs.append(Request(("graph-dot", "--k", str(k)) + n_arg()
                            + ("--max-k", str(k)), 0))
    reqs += [Request(("paths", "--k", "15", "--lambda", "1"), 3),
             Request(("permissible", "--k", "15", "--n", "2", "--lambda", ""), 3),
             Request(("graph-dot", "--k", "15", "--n", "2"), 3)]
    return reqs


def _small_triple(rng: random.Random, sizes):
    """Shapes of the given sizes (each at most 3), picked by the seed."""
    return tuple(rng.choice(partitions(s)) for s in sizes)


def _kron_args(lam, mu, nu):
    return ("--lambda", fmt_shape(lam), "--mu", fmt_shape(mu),
            "--nu", fmt_shape(nu))


def stable_level(lam, mu, nu) -> int:
    """n0 of the stable verb: max(2(|lam|+|mu|) - 1, max |tau| + tau_1)."""
    padded = max(sum(t) + (t[0] if t else 0) for t in (lam, mu, nu))
    return max(2 * (sum(lam) + sum(mu)) - 1, padded)


def kronecker_limits(rng: random.Random) -> list[Request]:
    """Stable limits at one large n next to sequences over many small n.

    The six heaviest limits (p >= 8) stay under a tenth of the list, so
    p90 falls among the many sequence requests, not on one draw.  p stops
    at 13 (n0 = 25): single limits at n0 27 and 29 take about a second each
    and vary by a fifth from one pass to the next, which would swamp the
    spread of job_s and cpu_s.
    """
    reqs = []
    for p in range(6, 14):
        lam = rng.choice(partitions((p + 1) // 2))
        mu = rng.choice(partitions(p // 2))
        nu = rng.choice(partitions((p + 1) // 2))
        reqs.append(Request(("stable",) + _kron_args(lam, mu, nu)
                            + ("--max-n", str(stable_level(lam, mu, nu))), 0))
    # every size triple the schedule names costs the same for any seed
    for a in range(4):
        for b in range(4):
            for j in range(2):
                triple = _small_triple(rng, (a, b, (a + b + j) % 4))
                reqs.append(Request(
                    ("monotone",) + _kron_args(*triple)
                    + ("--max-n", str(stable_level(*triple) + 2)), 0))
    for n in range(8, 17):
        for i in range(3):
            triple = _small_triple(rng, (i, (i + 1) % 4, (i + 2) % 4))
            reqs.append(Request(("kronecker",) + _kron_args(*triple)
                                + ("--n", str(n), "--max-n", str(n)), 0))
    for nmax in range(8, 15):
        for i, fmt in enumerate(("json", "csv", "json", "csv")):
            triple = _small_triple(rng, (3 - i, i, (nmax + i) % 4))
            reqs.append(Request(("kronecker",) + _kron_args(*triple)
                                + ("--nmax", str(nmax), "--max-n", str(nmax),
                                   "--format", fmt), 0))
    reqs += [Request(("kronecker",) + _kron_args((1,), (1,), ())
                     + ("--n", "12"), 3),
             Request(("kronecker",) + _kron_args((2,), (1,), (1,))
                     + ("--nmax", "11"), 3),
             Request(("monotone",) + _kron_args((1,), (1,), (1,))
                     + ("--nmax", "12"), 3)]
    return reqs


WORKLOADS = {
    "diagram_algebra": diagram_algebra,
    "branching_modules": branching_modules,
    "kronecker_limits": kronecker_limits,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The request list of a workload for a seed, in the order it is sent."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = WORKLOADS[workload](rng)
    rng.shuffle(reqs)
    return reqs
