"""Symmetric group characters and Kronecker coefficients, exactly.

Characters come from the Murnaghan-Nakayama recursion on beta-numbers.  A
shape of length l is held as its first-column hook lengths
shape_i + (l - 1 - i), a strictly decreasing tuple.  Peel the largest cycle,
of length r, off the cycle type: removing a border strip of length r moves
one beta-number down by r onto a free value, the strip's height is the
number of beta-numbers it jumps, and the character is the sum over such
moves of (-1)^height times the character of the rest.  The memoised
recursion (_character) neither validates nor sorts; mn_character is its
public entry, which validates shape and cycle type once per pair.  Kronecker
coefficients come from class-sum orthogonality,

    g(a, b, c) = (1/n!) * sum over cycle types of size * X^a * X^b * X^c,

which is exact in integers (the division is checked).  The sum validates
a, b, c once, enters the recursion directly for every class, and skips a
class as soon as X^a, then X^b, is zero there.  The
shape-based strip-removal recursion lives on in oracles.py as the oracle
these are tested against.

The stable regime: pad a partition lam to lam_[n] = (n - |lam|, lam), valid
when n - |lam| >= lam_1; g_n = g(lam_[n], mu_[n], nu_[n]) is weakly
increasing in n and becomes constant once the diagram algebra of degree
2(|lam| + |mu|) is semisimple at n and all three paddings are valid.  The
partition algebra of degree 2m is semisimple exactly from n = 2m - 1 on
(Martin 1996; Halverson-Ram 2005), so the stable level n0 is read off the
sizes alone; the block-chain scan in oracles.py is the oracle it is tested
against.

The sequence is often flat earlier.  For n >= |lam| + lam_1, chi^{lam_[n]}
is the character polynomial q_lam in the cycle counts m_1, m_2, ..., of
weighted degree |lam| when m_i has degree i (Macdonald, Symmetric Functions
and Hall Polynomials, Ex. I.7.14).  So g_n is the mean over S_n of
q_lam q_mu q_nu, a combination of products of binomials C(m_i, a_i) with
sum i a_i <= |lam| + |mu| + |nu|, and the mean of such a product over S_n
no longer depends on n once sum i a_i <= n (Arratia-Barbour-Tavare,
Logarithmic Combinatorial Structures, 2003).  Hence g_n is constant from
N* = max(|lam| + |mu| + |nu|, first_padded_n) on, and every verb sums
classes at most at the flat level F = min(n0, N*): kronecker_sequence
repeats g_F above it, kronecker_at evaluates at min(n, F) and
stable_kronecker at F, while stable_kronecker still reports n0.
padded_kronecker stays the literal class sum at the n it is given, and
check_monotone calls it at every n it reports.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import factorial

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


def _betas(shape: Partition) -> tuple[int, ...]:
    """First-column hook lengths shape_i + (l - 1 - i), strictly decreasing."""
    l = len(shape)
    return tuple(p + l - 1 - i for i, p in enumerate(shape))


@cache
def _character(betas: tuple[int, ...], cycle: Partition) -> int:
    """Character at a cycle type of the shape with these beta-numbers
    (strictly decreasing, of the cycle type's size); nothing is checked."""
    if not cycle:
        return 1
    r, rest = cycle[0], cycle[1:]
    l = len(betas)
    total = 0
    for i, b in enumerate(betas):
        nb = b - r
        if nb < 0:
            break
        j = i + 1
        while j < l and betas[j] > nb:
            j += 1
        if j < l and betas[j] == nb:
            continue
        height = j - i - 1
        value = _character(betas[:i] + betas[i + 1:j] + (nb,) + betas[j:], rest)
        total += -value if height % 2 else value
    return total


@cache
def mn_character(shape: Partition, cycle: Partition) -> int:
    """Irreducible character of S_n at a cycle type, n = |shape| = |cycle|."""
    shape, cycle = check_partition(shape), check_partition(cycle)
    if sum(shape) != sum(cycle):
        raise ValueError("shape and cycle type of different sizes")
    return _character(_betas(shape), cycle)


def pad(lam: Partition, n: int) -> Partition | None:
    """lam_[n]: first row n - |lam| on top of lam, or None when that row
    would be shorter than lam_1, i.e. when n < |lam| + lam_1.  The padding
    of () at 0 is (), which is falsy, so test the result with `is None`."""
    lam = check_partition(lam)
    if n < 0:
        raise ValueError("parameter n must be a nonnegative integer")
    head = n - sum(lam)
    if head < (lam[0] if lam else 0):
        return None
    return (head,) + lam if head else lam


def kronecker_coefficient(a: Partition, b: Partition, c: Partition) -> int:
    """Multiplicity of the c-irreducible in the a x b tensor square over S_n."""
    a, b, c = check_partition(a), check_partition(b), check_partition(c)
    n = sum(a)
    if sum(b) != n or sum(c) != n:
        raise ValueError("all three partitions must have the same size")
    ba, bb, bc = _betas(a), _betas(b), _betas(c)
    total = 0
    for mu in partitions_of(n):
        xa = _character(ba, mu)
        if xa:
            xb = _character(bb, mu)
            if xb:
                total += class_size(mu) * xa * xb * _character(bc, mu)
    g, rem = divmod(total, factorial(n))
    if rem:
        raise AssertionError(f"non-integral coefficient for {a}, {b}, {c}")
    if g < 0:
        raise AssertionError(f"negative coefficient for {a}, {b}, {c}")
    return g


def padded_kronecker(lam: Partition, mu: Partition, nu: Partition, n: int) -> tuple[int, bool]:
    """g at one n: (value, all-paddings-valid); invalid padding reports 0."""
    pl, pm, pn = pad(lam, n), pad(mu, n), pad(nu, n)
    if pl is None or pm is None or pn is None:
        return 0, False
    return kronecker_coefficient(pl, pm, pn), True


def kronecker_at(lam, mu, nu, n: int) -> tuple[int, bool]:
    """g at one n, as padded_kronecker reports it, summed at min(n, F):
    from the flat level F on, g_n is the value at F."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    return padded_kronecker(lam, mu, nu, min(n, _flat_level(lam, mu, nu)))


SequenceEntry = namedtuple("SequenceEntry", "n g valid")


def _literal_sequence(lam, mu, nu, n_max: int) -> list[SequenceEntry]:
    """One class sum per n in [0, n_max]."""
    if n_max < 0:
        raise ValueError("empty range")
    return [SequenceEntry(n, *padded_kronecker(lam, mu, nu, n))
            for n in range(n_max + 1)]


def kronecker_sequence(lam, mu, nu, n_max: int) -> list[SequenceEntry]:
    """g_n for n in [0, n_max], with validity flags; classes are summed
    only up to the flat level F, and every later entry repeats g_F."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    flat = _flat_level(lam, mu, nu)
    out = _literal_sequence(lam, mu, nu, min(n_max, flat))
    out += [SequenceEntry(n, out[-1].g, True)
            for n in range(flat + 1, n_max + 1)]
    return out


def first_padded_n(lam, mu, nu) -> int:
    """Least n with all three paddings valid: max over |tau| + tau_1."""
    return max(sum(tau) + (tau[0] if tau else 0) for tau in (lam, mu, nu))


def stable_level(lam, mu, nu) -> int:
    """First n where degree 2(|lam|+|mu|) is semisimple and every padding
    is valid (degree 0, at lam = mu = (), is semisimple at every n)."""
    return max(2 * (sum(lam) + sum(mu)) - 1, first_padded_n(lam, mu, nu))


def _flat_level(lam, mu, nu) -> int:
    """F = min(n0, N*), N* = max(|lam| + |mu| + |nu|, first_padded_n): the
    least level this module proves g_n constant from (module docstring)."""
    n_star = max(sum(lam) + sum(mu) + sum(nu), first_padded_n(lam, mu, nu))
    return min(stable_level(lam, mu, nu), n_star)


def _limit_at(lam, mu, nu, n: int) -> int:
    g, valid = padded_kronecker(lam, mu, nu, n)
    if not valid:
        raise AssertionError(f"padding invalid at the flat level {n}")
    return g


def stable_kronecker(lam, mu, nu) -> tuple[int, int]:
    """The limit coefficient and the level n0 where the sequence is provably
    flat: n0 = stable_level(lam, mu, nu) = max(2(|lam|+|mu|) - 1, first n
    with all paddings valid), the first n where degree 2(|lam|+|mu|) is
    semisimple and every padding fits.  When |nu| exceeds |lam| + |mu| the
    limit is zero.  The limit is summed at the flat level F <= n0; no bound
    is checked here, the CLI refuses an n0 above --max-n before calling."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    return (_limit_at(lam, mu, nu, _flat_level(lam, mu, nu)),
            stable_level(lam, mu, nu))


# stable_at is n0, where flatness is guaranteed; first_flat the least
# observed n with g_n at the limit already, or None; flat_at is F, the
# level the limit was summed at
MonotoneReport = namedtuple(
    "MonotoneReport", "lam mu nu entries stable stable_at first_flat passed "
    "violations flat_at")


def check_monotone(lam, mu, nu, n_max: int) -> MonotoneReport:
    """Verify g_n <= g_{n+1} <= stable limit on [0, n_max], summing classes
    at every n; the limit is the entry at the flat level F, or one more class
    sum when F exceeds n_max.  No bound is checked here: the CLI picks n_max
    (--nmax, default n0 + 2) and refuses one above --max-n before calling."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    n0 = stable_level(lam, mu, nu)
    entries = _literal_sequence(lam, mu, nu, n_max)
    flat = _flat_level(lam, mu, nu)
    stable = (entries[flat].g if flat <= n_max
              else _limit_at(lam, mu, nu, flat))
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
    # the least valid n in the trailing run of entries at the limit
    first_flat = None
    for e in reversed(entries):
        if e.g != stable:
            break
        if e.valid:
            first_flat = e.n
    return MonotoneReport(lam, mu, nu, tuple(entries), stable, n0,
                          first_flat, not violations, tuple(violations), flat)
