"""Symmetric group characters and Kronecker coefficients, exactly.

Characters come from the border-strip recursion: peel the largest cycle off
the cycle type, sum over removable border strips of that size with sign
(-1)^height.  Kronecker coefficients then come from class-sum orthogonality,

    g(a, b, c) = (1/n!) * sum over cycle types of size * X^a * X^b * X^c,

which is exact in integers (the division is checked).  The stable regime:
pad a partition lam to lam_[n] = (n - |lam|, lam), valid when n - |lam| >=
lam_1; g_n = g(lam_[n], mu_[n], nu_[n]) is weakly increasing in n and becomes
constant once the diagram algebra of degree 2(|lam| + |mu|) is semisimple at
n and all three paddings are valid.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import NamedTuple

from .errors import guard
from .modules import first_semisimple_n
from .partitions import Partition, check_partition, partitions_of


@cache
def class_size(mu: Partition) -> int:
    """Size of the conjugacy class of cycle type mu in S_|mu|."""
    n = sum(mu)
    z = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part ** m * factorial(m)
    return factorial(n) // z


def cycle_types(n: int) -> list[Partition]:
    return list(partitions_of(n))


def _strip_removals(shape: Partition, size: int):
    """Ways to remove a border strip of the given size: (new shape, height).

    Worked on first-column hook coordinates: rows become the distinct numbers
    shape_i + (l - i); removing a strip of length `size` moves one of them
    down by `size` onto an unoccupied value.
    """
    l = len(shape)
    betas = [shape[i] + l - 1 - i for i in range(l)]
    occupied = set(betas)
    for b in betas:
        nb = b - size
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new = sorted((c if c != b else nb for c in betas), reverse=True)
        parts = tuple(c - (l - 1 - i) for i, c in enumerate(new))
        yield tuple(p for p in parts if p), height


@cache
def mn_character(shape: Partition, cycle: Partition) -> int:
    """Irreducible character of S_n at a cycle type, n = |shape| = |cycle|."""
    shape, cycle = check_partition(shape), check_partition(cycle)
    if sum(shape) != sum(cycle):
        raise ValueError("shape and cycle type of different sizes")
    if not shape:
        return 1
    total = 0
    for smaller, height in _strip_removals(shape, cycle[0]):
        total += (-1) ** height * mn_character(smaller, cycle[1:])
    return total


def character_degree(shape: Partition) -> int:
    return mn_character(shape, (1,) * sum(shape)) if shape else 1


class PaddedPartition(NamedTuple):
    """lam_[n]: first row n - |lam| on top of lam; valid when that fits."""

    base: Partition
    n: int
    padded: Partition | None

    @property
    def valid(self) -> bool:
        return self.padded is not None


def pad(lam: Partition, n: int) -> PaddedPartition:
    lam = check_partition(lam)
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    head = n - sum(lam)
    if head < (lam[0] if lam else 0):
        return PaddedPartition(lam, n, None)
    padded = (head,) + lam if head else lam
    return PaddedPartition(lam, n, padded)


def kronecker_coefficient(a: Partition, b: Partition, c: Partition) -> int:
    """Multiplicity of the c-irreducible in the a x b tensor square over S_n."""
    a, b, c = check_partition(a), check_partition(b), check_partition(c)
    n = sum(a)
    if sum(b) != n or sum(c) != n:
        raise ValueError("all three partitions must have the same size")
    total = 0
    for mu in partitions_of(n):
        total += (class_size(mu) * mn_character(a, mu)
                  * mn_character(b, mu) * mn_character(c, mu))
    g, rem = divmod(total, factorial(n))
    if rem:
        raise AssertionError(f"non-integral coefficient for {a}, {b}, {c}")
    if g < 0:
        raise AssertionError(f"negative coefficient for {a}, {b}, {c}")
    return g


def padded_kronecker(lam: Partition, mu: Partition, nu: Partition, n: int) -> tuple[int, bool]:
    """g at one n: (value, all-paddings-valid); invalid padding reports 0."""
    pl, pm, pn = pad(lam, n), pad(mu, n), pad(nu, n)
    if not (pl.valid and pm.valid and pn.valid):
        return 0, False
    return kronecker_coefficient(pl.padded, pm.padded, pn.padded), True


class SequenceEntry(NamedTuple):
    n: int
    g: int
    valid: bool


def kronecker_sequence(lam, mu, nu, n_max: int, n_min: int = 0,
                       ) -> list[SequenceEntry]:
    """g_n for n in [n_min, n_max], with validity flags."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if n_max < n_min:
        raise ValueError("empty range")
    out = []
    for n in range(n_min, n_max + 1):
        g, valid = padded_kronecker(lam, mu, nu, n)
        out.append(SequenceEntry(n, g, valid))
    return out


def first_padded_n(lam, mu, nu) -> int:
    """Least n with all three paddings valid: max over |tau| + tau_1."""
    return max(sum(tau) + (tau[0] if tau else 0) for tau in (lam, mu, nu))


def _stable_level(lam, mu, nu) -> int:
    return max(first_semisimple_n(2 * (sum(lam) + sum(mu))),
               first_padded_n(lam, mu, nu))


def _limit_at(lam, mu, nu, n0: int) -> int:
    g, valid = padded_kronecker(lam, mu, nu, n0)
    if not valid:
        raise AssertionError(f"padding invalid at the stable level {n0}")
    return g


def stable_kronecker(lam, mu, nu, max_n: int | None = None) -> tuple[int, int]:
    """The limit coefficient and the level n0 where the sequence is provably
    flat: n0 = max(first semisimple n of degree 2(|lam|+|mu|), first n with
    all paddings valid).  When |nu| exceeds |lam| + |mu| the limit is zero.
    Refused when n0 exceeds max_n (None: no bound), before any class sum."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    n0 = _stable_level(lam, mu, nu)
    guard("stable level n0", n0, "max_n", max_n)
    return _limit_at(lam, mu, nu, n0), n0


class MonotoneReport(NamedTuple):
    lam: Partition
    mu: Partition
    nu: Partition
    entries: tuple[SequenceEntry, ...]
    stable: int
    stable_at: int          # n0, where flatness is guaranteed
    first_flat: int | None  # least observed n with g_n at the limit already
    passed: bool
    violations: tuple[str, ...]


def check_monotone(lam, mu, nu, n_max: int | None = None,
                   max_n: int | None = None) -> MonotoneReport:
    """Verify g_n <= g_{n+1} <= stable limit on [0, n_max] (default n0 + 2).
    Refused when n_max exceeds max_n (None: no bound), before any class sum."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    n0 = _stable_level(lam, mu, nu)
    if n_max is None:
        n_max = n0 + 2
    guard("n_max", n_max, "max_n", max_n)
    stable = _limit_at(lam, mu, nu, n0)
    entries = kronecker_sequence(lam, mu, nu, n_max)
    violations = []
    for prev, cur in zip(entries, entries[1:]):
        if prev.g > cur.g:
            violations.append(f"g_{prev.n}={prev.g} > g_{cur.n}={cur.g}")
    for e in entries:
        if e.g > stable:
            violations.append(f"g_{e.n}={e.g} exceeds the limit {stable}")
    for e in entries:
        if e.n >= n0 and e.g != stable:
            violations.append(f"g_{e.n}={e.g} differs from the limit past n0={n0}")
    first_flat = None
    for e in entries:
        if e.valid and e.g == stable and all(
                later.g == stable for later in entries if later.n >= e.n):
            first_flat = e.n
            break
    return MonotoneReport(lam, mu, nu, tuple(entries), stable, n0,
                          first_flat, not violations, tuple(violations))
