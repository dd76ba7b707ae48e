"""Integer partitions, Young diagram nodes, and a size-refined dominance order.

Partitions are plain tuples of weakly decreasing positive integers; () is the
empty partition.  Nodes are 1-indexed (row, col) pairs.  Every other module
shares these conventions.

The dominance order used throughout is graded by size first: lam >= mu holds
whenever |lam| < |mu|, and for equal sizes it is the usual partial-sum
dominance.  Smaller partitions sit higher.
"""

from __future__ import annotations

from typing import Iterator

Partition = tuple[int, ...]
Node = tuple[int, int]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    if any(not isinstance(p, int) or p <= 0 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts) -> Partition:
    """Return parts as a canonical tuple, raising ValueError if not a partition."""
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return parts


def parse_partition(text: str) -> Partition:
    """Parse "2,1" or "[2,1]"; "" and "[]" denote the empty partition.
    Parts are ASCII digits, with whitespace around them allowed."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1].strip()
    if not text:
        return ()
    pieces = [piece.strip() for piece in text.split(",")]
    if not all(p.isascii() and p.isdigit() for p in pieces):
        raise ValueError(f"malformed partition {text!r}")
    return check_partition(int(p) for p in pieces)


def format_partition(lam: Partition) -> str:
    """Inverse of parse_partition; the empty partition prints as "[]"."""
    if not lam:
        return "[]"
    return ",".join(str(p) for p in lam)


def row(lam: Partition, i: int) -> int:
    """Row length lam_i with 1-indexed i; zero beyond the last row."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def node_content(a: Node) -> int:
    return a[1] - a[0]


def addable_nodes(lam: Partition) -> list[Node]:
    """Nodes whose addition leaves a partition, top row first."""
    out = []
    for i in range(1, len(lam) + 2):
        if row(lam, i) < row(lam, i - 1) or i == 1:
            out.append((i, row(lam, i) + 1))
    return out


def removable_nodes(lam: Partition) -> list[Node]:
    """Nodes whose removal leaves a partition, top row first."""
    return [(i, lam[i - 1]) for i in range(1, len(lam) + 1)
            if row(lam, i) > row(lam, i + 1)]


def dominates(lam: Partition, mu: Partition) -> bool:
    """lam >= mu in the size-graded dominance order.

    Strictly smaller size always dominates; equal sizes compare by partial
    sums.  Distinct partitions of equal size may be incomparable.
    """
    if sum(lam) != sum(mu):
        return sum(lam) < sum(mu)
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += row(lam, i + 1)
        acc_m += row(mu, i + 1)
        if acc_l < acc_m:
            return False
    return True


def strictly_dominates(lam: Partition, mu: Partition) -> bool:
    return lam != mu and dominates(lam, mu)


def partitions_of(size: int) -> Iterator[Partition]:
    """All partitions of size in lexicographically descending order.

    Zoghbi and Stojmenovic's algorithm ZS1: x[1..m] holds the partition,
    x[h] is its last part above 1 and every later part is 1.  The next
    partition lowers x[h] by one and refills the tail greedily with parts of
    that size, then the remainder.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size == 0:
        yield ()
        return
    x = [1] * (size + 1)
    x[1] = size
    m = h = 1
    yield (size,)
    while x[1] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h + 1
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[1:m + 1])


def partitions_up_to(size: int) -> Iterator[Partition]:
    """Partitions of 0, 1, ..., size, each size block in descending lex order."""
    for s in range(size + 1):
        yield from partitions_of(s)

