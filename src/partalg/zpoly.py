"""Dense univariate polynomials over the integers, exact throughout.

Coefficient lists are stored in ascending degree with no trailing zeros, so
equal polynomials have equal tuples.  The variable prints as z.
"""

from __future__ import annotations

import re


class ZPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an int")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("ZPoly is immutable")

    def __reduce__(self):
        return ZPoly, (self.coeffs,)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return other
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        return hash(self.coeffs if len(self.coeffs) > 1 else sum(self.coeffs))

    def __add__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return other
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ZPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return ZPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __mul__(self, other):
        other = _poly(other)
        if other is NotImplemented:
            return other
        if not (self and other):
            return ZPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ZPoly(out)

    __rmul__ = __mul__

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self):
        if not self:
            return "0"
        pieces = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if pieces else "")
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}z" if d == 1 else f"{head}z^{d}"
            pieces.append(sign + body)
        return "".join(pieces)

    __repr__ = __str__


def _poly(x) -> ZPoly:
    """x as a ZPoly: an int is a constant and a ZPoly itself; anything else
    is NotImplemented, for ZPoly's operators to hand back."""
    if isinstance(x, ZPoly):
        return x
    return ZPoly((x,)) if isinstance(x, int) else NotImplemented


_SIGNED_TERMS = re.compile(r"[+-]?[^+-]+")
_TERM = re.compile(r"(?P<coef>\d+)?(?P<z>z(\^(?P<exp>\d+))?)?", re.ASCII)


def parse_zpoly(text: str) -> ZPoly:
    """Parse strings like "3z^2-1", "z", "-2z", "7"."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms = _SIGNED_TERMS.findall(text)
    if "".join(terms) != text:
        raise ValueError(f"malformed polynomial {text!r}")
    coeffs: list[int] = []
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        term = term.lstrip("+-")   # one sign at most, by _SIGNED_TERMS
        m = _TERM.fullmatch(term)
        if not m or (m.group("coef") is None and m.group("z") is None):
            raise ValueError(f"malformed term {term!r}")
        coef = int(m.group("coef")) if m.group("coef") else 1
        if m.group("z"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs += [0] * (exp + 1 - len(coeffs))
        coeffs[exp] += sign * coef
    return ZPoly(coeffs)
